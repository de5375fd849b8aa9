#include "kgacc/stats/replication.h"

#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/srs.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

/// One service for every replication in this file (RunReplications runs
/// its repetitions as service jobs).
EvaluationService& Service() {
  static EvaluationService service(
      EvaluationService::Options{.num_threads = 2});
  return service;
}

SyntheticKg MakeKg(double accuracy) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 2000;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = accuracy;
  cfg.seed = 555;
  return *SyntheticKg::Create(cfg);
}

TEST(RunReplicationsTest, AggregatesAllRuns) {
  const auto kg = MakeKg(0.9);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto summary = *RunReplications(Service(), sampler, annotator, config, 50, 1000);
  EXPECT_EQ(summary.triples.size(), 50u);
  EXPECT_EQ(summary.cost_hours.size(), 50u);
  EXPECT_EQ(summary.mu.size(), 50u);
  EXPECT_EQ(summary.triples_summary.n, 50u);
  EXPECT_EQ(summary.unconverged, 0);
  EXPECT_NEAR(summary.mu_summary.mean, 0.9, 0.05);
  EXPECT_GE(summary.triples_summary.min, 30.0);
}

TEST(RunReplicationsTest, DeterministicAcrossCalls) {
  const auto kg = MakeKg(0.9);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto a = *RunReplications(Service(), sampler, annotator, config, 20, 42);
  const auto b = *RunReplications(Service(), sampler, annotator, config, 20, 42);
  EXPECT_EQ(a.triples, b.triples);
  EXPECT_EQ(a.cost_hours, b.cost_hours);
}

TEST(RunReplicationsTest, SeedsAreConsecutive) {
  // Replication r of a batch equals a solo run with seed base + r.
  const auto kg = MakeKg(0.9);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto batch = *RunReplications(Service(), sampler, annotator, config, 5, 100);
  const auto solo = *RunEvaluation(sampler, annotator, config, 103);
  EXPECT_DOUBLE_EQ(batch.triples[3],
                   static_cast<double>(solo.annotated_triples));
}

TEST(RunReplicationsTest, CountsZeroWidthRuns) {
  const auto kg = MakeKg(1.0);  // All correct: Wald collapses every run.
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.method = IntervalMethod::kWald;
  const auto summary = *RunReplications(Service(), sampler, annotator, config, 20, 7);
  EXPECT_EQ(summary.zero_width, 20);
}

TEST(RunReplicationsTest, TracksPriorWins) {
  const auto kg = MakeKg(0.99);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;  // aHPD by default.
  const auto summary = *RunReplications(Service(), sampler, annotator, config, 30, 9);
  int total_wins = 0;
  for (int w : summary.prior_wins) total_wins += w;
  EXPECT_EQ(total_wins, 30);
  // At mu = 0.99 Kerman (index 0) should dominate.
  EXPECT_GT(summary.prior_wins[0], 15);
}

TEST(RunReplicationsTest, RejectsZeroReps) {
  const auto kg = MakeKg(0.9);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EXPECT_FALSE(RunReplications(Service(), sampler, annotator, {}, 0, 1).ok());
}

}  // namespace
}  // namespace kgacc
