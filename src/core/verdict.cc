#include "core/verdict.h"

namespace rwdt::core {

const char* QueryVerdict::FormName() const {
  switch (form) {
    case sparql::QueryForm::kSelect:
      return "select";
    case sparql::QueryForm::kAsk:
      return "ask";
    case sparql::QueryForm::kConstruct:
      return "construct";
    case sparql::QueryForm::kDescribe:
      return "describe";
  }
  return "unknown";
}

const char* QueryVerdict::FragmentName() const {
  if (analysis.ops.IsCq()) return "cq";
  if (analysis.ops.IsCqF()) return "cq_f";
  if (analysis.ops.IsC2RpqF()) return "c2rpq_f";
  return "other";
}

uint64_t QueryVerdict::HtwLe() const {
  if (analysis.cqf_htw1) return 1;
  if (analysis.cqf_htw2) return 2;
  if (analysis.cqf_htw3) return 3;
  return 0;
}

QueryVerdict Classify(const sparql::Query& q, const LogStudyOptions& options,
                      StageTimings* timings) {
  ClassifyScratch scratch;
  return Classify(q, options, &scratch, timings);
}

QueryVerdict Classify(const sparql::Query& q, const LogStudyOptions& options,
                      ClassifyScratch* scratch, StageTimings* timings) {
  QueryVerdict v;
  v.form = q.form;
  v.analysis = AnalyzeQuery(q, options, scratch, timings);
  return v;
}

}  // namespace rwdt::core
