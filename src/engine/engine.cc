#include "engine/engine.h"

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/interner.h"
#include "core/query_analysis.h"
#include "obs/trace.h"
#include "sparql/parser.h"

namespace rwdt::engine {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

unsigned ResolveThreads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Process-wide engine ordinal for the registry's `engine="<n>"` label,
/// so several live engines expose disjoint series instead of clobbering
/// each other's families.
std::atomic<uint64_t> g_engine_ordinal{0};

}  // namespace

Status EngineOptions::Validate() const {
  constexpr unsigned kMaxThreads = 4096;
  if (threads > kMaxThreads) {
    return Status::InvalidArgument("threads must be <= 4096");
  }
  RWDT_RETURN_IF_ERROR(progress.Validate());
  return Status::Ok();
}

/// Per-shard accumulator and dedup state. Shards never share mutable
/// state, so workers run lock-free. The state persists across
/// EngineStream::Feed calls: the interner assigns dense ids to query
/// texts in stream order and `texts[id]` keeps that text's outcome, so
/// chunk boundaries are invisible to dedup and to error attribution.
///
/// Layout constraint: alignas(64) — shard states live contiguously in
/// the `shards` vector and are mutated concurrently by different
/// workers, so a state must never straddle a cache line shared with its
/// neighbor (false sharing on `valid`/`unique` would serialize the
/// whole sweep).
struct alignas(64) Engine::ShardState {
  /// Dedup dictionary: text -> dense first-seen id, looked up with the
  /// hash precomputed during routing.
  Interner seen;
  /// Per-parse symbol dictionary, Clear()ed before every parse so the
  /// analysis stays a pure function of the query text while the arena
  /// and slot table are reused allocation-free across queries.
  Interner dict;
  /// The query each first sight parses into and the buffers its
  /// classification fills, both emptied and refilled per distinct text,
  /// so a first sight allocates nothing once they have grown.
  sparql::Query query;
  core::ClassifyScratch scratch;
  /// The outcome of one distinct text, computed once per stream: 16
  /// bytes, so a duplicate reads one small record and the vector's
  /// growth moves no analysis.
  struct Text {
    static constexpr uint32_t kRejected = UINT32_MAX;
    /// Occurrences after the first (valid texts only). Finish folds each
    /// analysis into valid_agg once with this weight; AddToAggregates is
    /// weight-linear in every field (unsigned sums), so one weighted
    /// call is bit-identical to per-occurrence calls.
    uint64_t dup_extra = 0;
    /// Index into `analyses`, or kRejected for a text that failed to
    /// parse.
    uint32_t analysis = kRejected;
    uint8_t error = 0;  // the ErrorClass of a rejected text
  };
  static_assert(sizeof(Text) == 16);
  /// Indexed by `seen` id. Memory is O(distinct texts), the same class
  /// as `seen`, which already pins every distinct text itself.
  std::vector<Text> texts;
  /// The analysis of each distinct valid text, in first-sight order.
  std::vector<core::QueryAnalysis> analyses;
  uint64_t valid = 0;
  uint64_t unique = 0;
  std::array<uint64_t, kNumErrorClasses> errors{};
  /// Each distinct valid text once. Finish adds it to both the study's
  /// unique_agg and, with the duplicate weight on top, its valid_agg.
  core::LogAggregates unique_agg;
  /// This shard's counts and stage timings since the last merge into
  /// the engine's total: the per-query path touches nothing shared.
  Metrics metrics;
};

/// Stream state: the per-shard states plus the study skeleton that
/// accumulates totals and ingest-level rejects.
struct EngineStream::Impl {
  Engine* engine = nullptr;
  core::SourceStudy study;
  std::vector<Engine::ShardState> shards;
  /// Shard routing buffers, cleared and refilled per Feed call instead
  /// of reallocated per chunk (steady-state feeds allocate nothing).
  std::vector<std::vector<RoutedEntry>> parts;
  /// Entries, rejects and wall time not yet merged into the engine's
  /// total.
  Metrics metrics;
  /// Live reporting for the stream's lifetime (null unless enabled).
  std::unique_ptr<ProgressReporter> reporter;

  /// Merges the shard slabs and the stream's own slab into the engine's
  /// total under its lock, sets the occupancy gauges, and empties the
  /// slabs.
  void CommitMetrics();
};

Engine::Engine(const EngineOptions& options)
    : options_(options), threads_(ResolveThreads(options.threads)) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  metrics_.threads = threads_;
  const uint64_t ordinal =
      g_engine_ordinal.fetch_add(1, std::memory_order_relaxed);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const uint64_t id = registry.AddCollector(
      [this, labels = obs::Labels{{"engine", std::to_string(ordinal)}}](
          std::vector<obs::FamilySnapshot>* out) {
        Snapshot().AppendFamilies(labels, out);
      });
  registry_collector_ = obs::ScopedCollector(&registry, id);
}

Engine::~Engine() {
  // The collector reads engine state at scrape time, so unhook it
  // before the members it touches are destroyed.
  registry_collector_.Reset();
}

core::SourceStudy Engine::AnalyzeLog(const loggen::SourceProfile& profile,
                                     uint64_t seed) {
  const uint64_t t0 = NowNs();
  const auto entries = loggen::GenerateLog(profile, seed);
  const uint64_t generate_ns = NowNs() - t0;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    metrics_.Record(Stage::kGenerate, generate_ns);
  }
  return AnalyzeEntries(profile.name, profile.wikidata_like, entries);
}

core::SourceStudy Engine::AnalyzeEntries(
    const std::string& name, bool wikidata_like,
    const std::vector<loggen::LogEntry>& entries) {
  EngineStream stream = OpenStream(name, wikidata_like);
  stream.Feed(entries);
  return stream.Finish();
}

EngineStream Engine::OpenStream(std::string name, bool wikidata_like) {
  auto impl = std::make_unique<EngineStream::Impl>();
  impl->engine = this;
  impl->study.name = std::move(name);
  impl->study.wikidata_like = wikidata_like;
  impl->shards = std::vector<ShardState>(threads_);
  impl->parts.resize(threads_);
  if (options_.progress.enabled()) {
    impl->reporter = std::make_unique<ProgressReporter>(
        [this] { return Snapshot(); }, impl->study.name, options_.progress);
  }
  return EngineStream(std::move(impl));
}

EngineStream::EngineStream(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
EngineStream::EngineStream(EngineStream&&) noexcept = default;
EngineStream& EngineStream::operator=(EngineStream&&) noexcept = default;
EngineStream::~EngineStream() = default;

void EngineStream::Feed(const std::vector<loggen::LogEntry>& chunk) {
  FeedImpl(chunk.size(), [&chunk](auto&& route) {
    for (const auto& e : chunk) route(std::string_view(e.text));
  });
}

void EngineStream::Feed(std::span<const std::string_view> chunk) {
  FeedImpl(chunk.size(), [&chunk](auto&& route) {
    for (const std::string_view text : chunk) route(text);
  });
}

template <typename ForEachText>
void EngineStream::FeedImpl(size_t count, ForEachText&& for_each_text) {
  Impl& im = *impl_;
  Engine& eng = *im.engine;
  obs::Span feed_span("feed");
  const uint64_t t_start = NowNs();

  // Hash-once routing: each entry's text is hashed exactly once, here,
  // and the hash travels with the entry through shard routing and
  // per-shard dedup. Every duplicate of a query lands in the same shard,
  // making per-shard dedup globally exact. The partition buffers live in
  // Impl and are recycled across Feed calls.
  const size_t shard_count = eng.threads_;  // one shard per thread
  auto& parts = im.parts;
  for (auto& part : parts) part.clear();
  if (shard_count == 1) {
    parts[0].reserve(count);
    for_each_text([&parts](std::string_view text) {
      parts[0].push_back({text, Hash64(text)});
    });
  } else {
    for_each_text([&parts, shard_count](std::string_view text) {
      const uint64_t h = Hash64(text);
      parts[h % shard_count].push_back({text, h});
    });
  }

  if (eng.pool_ == nullptr) {
    for (size_t s = 0; s < shard_count; ++s) {
      eng.ProcessShard(parts[s], &im.shards[s]);
    }
  } else {
    // Propagate the feeding thread's trace context (captured after
    // feed_span opened, so it names the feed span) into each pool task:
    // shard/stage spans recorded on pool threads nest under this Feed,
    // and a serve worker's request trace crosses the pool handoff.
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    for (size_t s = 0; s < shard_count; ++s) {
      eng.pool_->Submit([&eng, &im, ctx, s] {
        obs::ScopedTraceContext scoped(ctx);
        eng.ProcessShard(im.parts[s], &im.shards[s]);
      });
    }
    eng.pool_->Wait();
  }

  im.study.total += count;
  im.metrics.entries_processed += count;
  im.metrics.wall_ns += NowNs() - t_start;
  // After the workers quiesced: the chunk's entries, its rejects and its
  // stage timings reach the total together.
  im.CommitMetrics();
}

void EngineStream::Impl::CommitMetrics() {
  uint64_t interner_bytes = 0;
  uint64_t dedup_entries = 0;
  for (const Engine::ShardState& s : shards) {
    interner_bytes += s.seen.bytes_reserved() + s.dict.bytes_reserved();
    dedup_entries += s.seen.size();
  }
  {
    std::lock_guard<std::mutex> lock(engine->metrics_mu_);
    Metrics& total = engine->metrics_;
    for (const Engine::ShardState& s : shards) total.Merge(s.metrics);
    total.Merge(metrics);
    total.interner_bytes = interner_bytes;
    total.dedup_entries = dedup_entries;
  }
  for (Engine::ShardState& s : shards) s.metrics = Metrics{};
  metrics = Metrics{};
}

void EngineStream::Reject(ErrorClass c, uint64_t n) {
  Impl& im = *impl_;
  im.study.total += n;
  im.study.errors[static_cast<size_t>(c)] += n;
  im.metrics.entries_processed += n;
  im.metrics.AddError(c, n);
}

core::SourceStudy EngineStream::Finish() {
  Impl& im = *impl_;

  // Reduce in shard order. All aggregate fields are unsigned sums, so
  // the result is independent of the shard partition itself.
  core::SourceStudy study;
  {
    obs::Span finish_span("finish");
    study = std::move(im.study);
    for (const Engine::ShardState& s : im.shards) {
      study.valid += s.valid;
      study.unique += s.unique;
      for (size_t c = 0; c < kNumErrorClasses; ++c) {
        study.errors[c] += s.errors[c];
      }
      // Every distinct valid text counts once in both aggregates; valid
      // adds one weighted AddToAggregates per text that recurred.
      // Unsigned sums, so the result equals per-occurrence calls.
      core::Merge(s.unique_agg, &study.valid_agg);
      core::Merge(s.unique_agg, &study.unique_agg);
      for (const Engine::ShardState::Text& t : s.texts) {
        if (t.dup_extra == 0) continue;
        core::AddToAggregates(s.analyses[t.analysis], t.dup_extra,
                              &study.valid_agg);
      }
    }
    // Rejects since the last Feed; the gauges keep this stream's final
    // occupancy until the next one.
    im.CommitMetrics();
    im.shards.clear();
  }
  // Stop after the reduce so the final report's counters are the run's
  // complete totals.
  if (im.reporter != nullptr) {
    im.reporter->Stop();
    im.reporter.reset();
  }
  return study;
}

void Engine::ProcessShard(const std::vector<RoutedEntry>& entries,
                          ShardState* state) {
  obs::Span shard_span("shard");
  // The shard's own slab: the enclosing Feed merges it into the engine's
  // total once this task and its siblings are done.
  Metrics& local = state->metrics;

  // Every rejected entry is attributed to exactly one taxonomy class,
  // duplicates included, so total == valid + sum(errors) holds per shard.
  auto reject = [&](ErrorClass c) {
    state->errors[static_cast<size_t>(c)]++;
    local.AddError(c);
  };

  // Exact first-occurrence tracking: `texts[id]` keeps the outcome of each
  // distinct text, so a repeated entry never reaches the parser; each
  // distinct text is parsed and classified exactly once per stream.
  for (const RoutedEntry& routed : entries) {
    const std::string_view text = routed.text;
    const SymbolId prior = static_cast<SymbolId>(state->seen.size());
    const SymbolId id = state->seen.InternWithHash(routed.hash, text);

    if (id != prior) {
      ShardState::Text& known = state->texts[id];
      if (known.analysis == ShardState::Text::kRejected) {
        reject(static_cast<ErrorClass>(known.error));
        continue;
      }
      // Valid duplicate: two counter bumps and done. The aggregate fold
      // happens once per distinct text at Finish, weighted by this count.
      state->valid++;
      known.dup_extra++;
      continue;
    }

    // First sight in this stream. Clear()ing the reusable per-shard
    // dictionary restarts ids at 0, so each parse is a pure function of
    // the text, while the arena and slot table are recycled instead of
    // rebuilt for every parse.
    ShardState::Text& fresh = state->texts.emplace_back();
    state->dict.Clear();
    const uint64_t t0 = NowNs();
    const Status parsed = sparql::ParseSparql(
        text, &state->dict, sparql::ParseLimits{}, &state->query);
    const uint64_t t1 = NowNs();
    local.Record(Stage::kParse, t1 - t0);
    obs::EmitSpan("parse", t0, t1 - t0);
    if (!parsed.ok()) {
      const ErrorClass error = ClassifyStatus(parsed);
      fresh.error = static_cast<uint8_t>(error);
      local.parse_failures++;
      reject(error);
      continue;
    }
    // Six clock reads per accepted text: parse start and end here, the
    // three classify stage boundaries inside AnalyzeQuery, and aggregate
    // end. Classify starts at the parse's end and the aggregate at
    // classify's last read, so the five spans abut.
    core::StageTimings st;
    st.start_ns = t1;
    fresh.analysis = static_cast<uint32_t>(state->analyses.size());
    const core::QueryAnalysis& analysis =
        state->analyses.emplace_back(core::AnalyzeQuery(
            state->query, options_.study, &state->scratch, &st));
    local.queries_analyzed++;
    state->valid++;
    state->unique++;
    const uint64_t t2 = st.end_ns;
    core::AddToAggregates(analysis, 1, &state->unique_agg);
    const uint64_t t3 = NowNs();
    local.Record(Stage::kFeatures, st.feature_ns);
    local.Record(Stage::kHypergraph, st.hypergraph_ns);
    local.Record(Stage::kPaths, st.path_ns);
    local.Record(Stage::kAggregate, t3 - t2);
    obs::EmitSpan("features", t1, st.feature_ns);
    obs::EmitSpan("hypergraph", t1 + st.feature_ns, st.hypergraph_ns);
    obs::EmitSpan("paths", t1 + st.feature_ns + st.hypergraph_ns,
                  st.path_ns);
    obs::EmitSpan("aggregate", t2, t3 - t2);
  }
}

Metrics Engine::Snapshot() const {
  Metrics snap;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    snap = metrics_;
  }
  snap.queue_depth = pool_ != nullptr ? pool_->QueueDepth() : 0;
  return snap;
}

}  // namespace rwdt::engine
