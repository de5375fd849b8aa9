// Compare every interval method on the same audit task — the "which
// interval should my pipeline use?" question the paper answers. Builds one
// EvaluationJob per method and hands the whole comparison to the
// EvaluationService, which runs the audits concurrently and returns the
// results in submission order; a replication study (also one parallel
// batch per method) shows the differences are not one-off luck.

#include <cstdio>

#include "kgacc/kgacc.h"

int main() {
  using namespace kgacc;
  const auto kg = *MakeKg(NellProfile(), /*seed=*/2024);
  std::printf("Auditing a NELL-like KG: %llu facts, true accuracy %.4f\n",
              static_cast<unsigned long long>(kg.num_triples()),
              kg.TrueAccuracy());

  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  const IntervalMethod methods[] = {
      IntervalMethod::kWald,         IntervalMethod::kWilson,
      IntervalMethod::kAgrestiCoull, IntervalMethod::kClopperPearson,
      IntervalMethod::kEqualTailed,  IntervalMethod::kHpd,
      IntervalMethod::kAhpd,
  };

  // One job per method: same population, same seed, same design — the
  // interval choice is the only difference between the columns.
  EvaluationService service;
  std::vector<EvaluationJob> jobs;
  for (const IntervalMethod method : methods) {
    EvaluationJob job;
    job.sampler = &sampler;
    job.annotator = &annotator;
    job.config.method = method;
    job.seed = 7;
    job.label = IntervalMethodName(method);
    jobs.push_back(std::move(job));
  }
  const EvaluationBatchResult batch = service.RunBatch(jobs);

  std::printf("(%zu audits on %d service threads, %.0f ms wall)\n\n",
              batch.stats.jobs, batch.stats.num_threads,
              batch.stats.wall_seconds * 1e3);
  std::printf("%-16s %8s %22s %9s %9s\n", "Method", "mu_hat", "95% interval",
              "triples", "cost(h)");
  for (const EvaluationJobOutcome& outcome : batch.outcomes) {
    if (!outcome.status.ok()) {
      std::printf("%-16s failed: %s\n", outcome.label.c_str(),
                  outcome.status.ToString().c_str());
      continue;
    }
    const EvaluationResult& result = outcome.result;
    char interval[32];
    std::snprintf(interval, sizeof(interval), "[%.4f, %.4f]",
                  result.interval.lower, result.interval.upper);
    std::printf("%-16s %8.4f %22s %9llu %9.2f\n", outcome.label.c_str(),
                result.mu, interval,
                static_cast<unsigned long long>(result.annotated_triples),
                result.cost_hours);
  }

  // Replication study: one run can be lucky; 200 repetitions show the
  // systematic ordering (aHPD cheapest among the reliable methods).
  std::printf("\nMean annotated triples over 200 repetitions:\n");
  for (const IntervalMethod method :
       {IntervalMethod::kWald, IntervalMethod::kWilson,
        IntervalMethod::kClopperPearson, IntervalMethod::kAhpd}) {
    EvaluationConfig config;
    config.method = method;
    const auto summary =
        RunReplications(service, sampler, annotator, config, 200, 77);
    std::printf("  %-16s %7.1f ± %-6.1f  (zero-width runs: %d)\n",
                IntervalMethodName(method), summary->triples_summary.mean,
                summary->triples_summary.stddev, summary->zero_width);
  }
  std::printf("\nTakeaway: Wald is cheap but degenerate on skewed KGs;\n"
              "Clopper-Pearson is safe but conservative; aHPD is both\n"
              "reliable (valid post-data probability) and the cheapest.\n");
  return 0;
}
