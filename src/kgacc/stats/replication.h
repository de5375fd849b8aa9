#ifndef KGACC_STATS_REPLICATION_H_
#define KGACC_STATS_REPLICATION_H_

#include <vector>

#include "kgacc/eval/evaluator.h"
#include "kgacc/eval/service.h"
#include "kgacc/stats/descriptive.h"
#include "kgacc/util/status.h"

/// \file replication.h
/// The repetition protocol of §5: every (dataset, design, method, alpha)
/// configuration is evaluated `reps` times with seeds base_seed + i, and
/// reported as mean +- std of annotated triples and annotation cost. Raw
/// per-repetition vectors are retained for the significance tests.

namespace kgacc {

/// Aggregated outcome of repeated evaluation runs.
struct ReplicationSummary {
  /// Raw per-repetition values (for t-tests and percentiles).
  std::vector<double> triples;
  std::vector<double> cost_hours;
  std::vector<double> mu;
  std::vector<double> interval_widths;
  /// Summaries of the above.
  SampleSummary triples_summary;
  SampleSummary cost_summary;
  SampleSummary mu_summary;
  /// Runs that hit the annotation cap without satisfying the MoE budget.
  int unconverged = 0;
  /// Runs ending with a zero-width interval (the Example 1 pathology).
  int zero_width = 0;
  /// How often each prior index won (aHPD diagnostics).
  std::vector<int> prior_wins;
};

/// Runs the protocol: `reps` evaluations (seed = base_seed + i) fanned out
/// as `EvaluationService` jobs (one sampler clone per job), aggregated in
/// repetition order. The summary equals a loop of `RunEvaluation` calls
/// for every thread count; with more than one thread the annotator must be
/// safe for concurrent `Annotate` calls (the simulation annotators are).
Result<ReplicationSummary> RunReplications(EvaluationService& service,
                                           const Sampler& sampler,
                                           Annotator& annotator,
                                           const EvaluationConfig& config,
                                           int reps, uint64_t base_seed);

}  // namespace kgacc

#endif  // KGACC_STATS_REPLICATION_H_
