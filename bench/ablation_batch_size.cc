// Ablation D: sensitivity of the iterative framework to the batch size of
// phase 1. Small batches stop closest to the ideal sample size (fewest
// wasted annotations past the MoE crossing) but re-estimate more often;
// large batches overshoot. This quantifies the framework-level overhead
// that the interval method cannot see.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace kgacc;
  const int reps = bench::Reps();
  const uint64_t seed = bench::BaseSeed();
  OracleAnnotator annotator;

  std::printf("Ablation D: batch-size sensitivity (aHPD, SRS, alpha=0.05, "
              "%d reps)\n", reps);
  bench::Rule(86);
  std::printf("%6s %14s %14s %14s %14s\n", "batch", "YAGO", "NELL", "DBPEDIA",
              "FACTBENCH");
  bench::Rule(86);
  for (const int batch : {1, 5, 10, 20, 50}) {
    std::printf("%6d", batch);
    for (const DatasetProfile& profile : SmallProfiles()) {
      const auto kg = *MakeKg(profile, seed);
      SrsSampler sampler(kg, SrsConfig{.batch_size = batch});
      EvaluationConfig config;
      const auto summary = *RunReplications(
          bench::SharedService(), sampler, annotator, config, reps, seed + 61);
      std::printf(" %14s", bench::MeanStd(summary.triples_summary, 0).c_str());
    }
    std::printf("\n");
  }
  bench::Rule(86);

  std::printf("\nTWCS first-stage batch (clusters per iteration, m=3):\n");
  bench::Rule(86);
  for (const int batch : {1, 3, 5, 10}) {
    std::printf("%6d", batch);
    for (const DatasetProfile& profile : SmallProfiles()) {
      const auto kg = *MakeKg(profile, seed);
      TwcsSampler sampler(kg, TwcsConfig{.batch_clusters = batch,
                                         .second_stage_size = 3});
      EvaluationConfig config;
      const auto summary = *RunReplications(
          bench::SharedService(), sampler, annotator, config, reps, seed + 62);
      std::printf(" %14s", bench::MeanStd(summary.triples_summary, 0).c_str());
    }
    std::printf("\n");
  }
  bench::Rule(86);
  std::printf("Expected shape: mean annotations grow mildly with batch size "
              "(overshoot), while\nthe winner ordering across datasets is "
              "batch-size invariant.\n");
  return 0;
}
