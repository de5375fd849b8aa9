#include "kgacc/stats/replication.h"

#include <algorithm>

namespace kgacc {

namespace {

void Accumulate(ReplicationSummary& summary, const EvaluationResult& result) {
  summary.triples.push_back(static_cast<double>(result.annotated_triples));
  summary.cost_hours.push_back(result.cost_hours);
  summary.mu.push_back(result.mu);
  summary.interval_widths.push_back(result.interval.Width());
  if (!result.converged) ++summary.unconverged;
  if (result.interval.Width() == 0.0) ++summary.zero_width;
  if (result.winning_prior < summary.prior_wins.size()) {
    ++summary.prior_wins[result.winning_prior];
  }
}

}  // namespace

Result<ReplicationSummary> RunReplications(EvaluationService& service,
                                           const Sampler& sampler,
                                           Annotator& annotator,
                                           const EvaluationConfig& config,
                                           int reps, uint64_t base_seed) {
  if (reps < 1) {
    return Status::InvalidArgument("need at least one repetition");
  }
  std::vector<EvaluationJob> jobs(reps);
  for (int rep = 0; rep < reps; ++rep) {
    jobs[rep].sampler = &sampler;
    jobs[rep].annotator = &annotator;
    jobs[rep].config = config;
    jobs[rep].seed = base_seed + rep;
  }
  const EvaluationBatchResult batch = service.RunBatch(jobs);

  ReplicationSummary summary;
  summary.triples.reserve(reps);
  summary.cost_hours.reserve(reps);
  summary.mu.reserve(reps);
  summary.interval_widths.reserve(reps);
  summary.prior_wins.assign(std::max<size_t>(config.priors.size(), 1), 0);
  for (const EvaluationJobOutcome& outcome : batch.outcomes) {
    KGACC_RETURN_IF_ERROR(outcome.status);
    Accumulate(summary, outcome.result);
  }
  KGACC_ASSIGN_OR_RETURN(summary.triples_summary, Summarize(summary.triples));
  KGACC_ASSIGN_OR_RETURN(summary.cost_summary, Summarize(summary.cost_hours));
  KGACC_ASSIGN_OR_RETURN(summary.mu_summary, Summarize(summary.mu));
  return summary;
}

}  // namespace kgacc
