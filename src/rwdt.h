// Umbrella header for the rwdt library.
//
// This is the supported public surface: applications (and the bundled
// examples) include only this header. The individual headers below stay
// includable for fine-grained builds, but anything not reachable from
// here is an internal detail and may change without notice.
//
// The API follows three repo-wide conventions:
//   * Fallible operations return Status or Result<T> (common/status.h);
//     errors map onto the five-class taxonomy in ErrorClass.
//   * Every parser entry point is Parse*(std::string_view, Interner*)
//     -> Result<T>; the interner, the library's one symbol table, owns
//     all symbol names (Name() views stay valid until its Clear()).
//   * Streaming analysis goes through engine::Engine::OpenStream or the
//     ingest::IngestStream / IngestFile wrappers, which keep memory
//     bounded regardless of log size.
//   * Observability is opt-in and zero-cost when idle: install an
//     obs::TraceCollector for a Perfetto-loadable per-worker timeline,
//     use RWDT_LOG for leveled structured logging, and set
//     EngineOptions::progress (also IngestOptions::engine.progress) for
//     live run reporting, labeled with the stream's source name. The
//     engine runs one shard per thread and only analyzes; a process that
//     runs it hosts the admin endpoints (serve::MaybeStartEnvAdmin) and
//     the profiler (obs::MaybeStartEnvProfile) itself.
#ifndef RWDT_RWDT_H_
#define RWDT_RWDT_H_

// Foundations: status/error taxonomy, interning, RNG, stats, tables,
// JSON string escaping.
#include "common/build_info.h"
#include "common/interner.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

// Observability: tracing, structured logging, the metric registry and
// its OpenMetrics exposition, the profiler and the process footprint.
#include "obs/log.h"
#include "obs/openmetrics.h"
#include "obs/proc_stats.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

// Parsers and per-formalism analyses.
#include "paths/analysis.h"
#include "paths/automaton.h"
#include "paths/path.h"
#include "paths/semantics.h"
#include "regex/automaton.h"
#include "regex/fragments.h"
#include "regex/glushkov.h"
#include "regex/parser.h"
#include "schema/bonxai.h"
#include "schema/dtd.h"
#include "schema/edtd.h"
#include "schema/json_schema.h"
#include "sparql/algebra.h"
#include "sparql/analysis.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "tree/json.h"
#include "tree/tree.h"
#include "tree/xml.h"
#include "xpath/xpath.h"

// Graph data, hypergraphs, and schema-inference algorithms.
#include "graph/generators.h"
#include "graph/rdf.h"
#include "graph/treewidth.h"
#include "hypergraph/hypergraph.h"
#include "inference/crx.h"
#include "inference/kore.h"
#include "inference/rwr.h"
#include "inference/soa.h"

// Log generation, corruption, serialization, and traffic shaping.
#include "loggen/corpus_gen.h"
#include "loggen/corruptor.h"
#include "loggen/log_text.h"
#include "loggen/rate_schedule.h"
#include "loggen/sparql_gen.h"

// Streaming engine (with its metrics value and live run reporting),
// studies, and raw-text ingest.
#include "core/log_study.h"
#include "core/query_analysis.h"
#include "core/studies.h"
#include "core/verdict.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/progress.h"
#include "ingest/ingest.h"

// Classifier-dispatched query executor: set-at-a-time operators and the
// verdict-dispatching planner.
#include "exec/operators.h"
#include "exec/planner.h"

// HTTP serving: the hand-rolled HTTP/1.1 stack, the shared admin routes
// and the server a tool hosts them on (/metrics, /healthz, /readyz,
// /statusz, /tracez, /profilez), and the classification service
// (batching, backpressure, per-tenant quotas, graceful drain).
#include "serve/admin_server.h"
#include "serve/http_server.h"
#include "serve/serve.h"
#include "serve/verdict.h"

#endif  // RWDT_RWDT_H_
