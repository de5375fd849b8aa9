// The finished snapshot: once a stop rule fires, an audit's checkpoint
// keeps only what its report reads (the fingerprint, the accumulator
// totals, the result, the stop state and the two distinct-set sizes). A
// session restored from it must answer Step(), Finish() and the cost model
// exactly as the original done session did, for every design and interval
// method; the live snapshot of a done session must still restore as it did;
// and the finished checkpoint must not grow with the sample.

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kgacc/eval/runner.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/util/codec.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/kgacc_finished_test_" + name + "_" +
         std::to_string(::getpid());
}

SyntheticKg TestKg(uint64_t clusters = 500) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = clusters;
  cfg.mean_cluster_size = 3.5;
  cfg.accuracy = 0.82;
  cfg.seed = 31;
  return *SyntheticKg::Create(cfg);
}

struct Design {
  const char* name;
  std::function<std::unique_ptr<Sampler>(const KgView&)> make;
};

std::vector<Design> Designs() {
  return {
      {"SRS",
       [](const KgView& kg) {
         return std::make_unique<SrsSampler>(kg, SrsConfig{});
       }},
      {"SRS-WOR",
       [](const KgView& kg) {
         return std::make_unique<SrsSampler>(
             kg, SrsConfig{.without_replacement = true});
       }},
      {"TWCS",
       [](const KgView& kg) {
         return std::make_unique<TwcsSampler>(kg, TwcsConfig{});
       }},
      {"WCS",
       [](const KgView& kg) {
         return std::make_unique<WcsSampler>(kg, ClusterConfig{});
       }},
      {"RCS",
       [](const KgView& kg) {
         return std::make_unique<RcsSampler>(kg, ClusterConfig{});
       }},
      {"SSRS",
       [](const KgView& kg) {
         return std::make_unique<StratifiedSampler>(kg, StratifiedConfig{});
       }},
      {"SYS",
       [](const KgView& kg) {
         return std::make_unique<SystematicSampler>(kg, SystematicConfig{});
       }},
  };
}

constexpr IntervalMethod kMethods[] = {
    IntervalMethod::kWald,           IntervalMethod::kWilson,
    IntervalMethod::kAgrestiCoull,   IntervalMethod::kClopperPearson,
    IntervalMethod::kEqualTailed,    IntervalMethod::kHpd,
    IntervalMethod::kAhpd,
};

/// Every field of the result, doubles compared bit for bit.
void ExpectSameResult(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.interval.lower, b.interval.lower);
  EXPECT_EQ(a.interval.upper, b.interval.upper);
  EXPECT_EQ(a.annotated_triples, b.annotated_triples);
  EXPECT_EQ(a.distinct_triples, b.distinct_triples);
  EXPECT_EQ(a.distinct_entities, b.distinct_entities);
  EXPECT_EQ(a.cost_seconds, b.cost_seconds);
  EXPECT_EQ(a.cost_hours, b.cost_hours);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.winning_prior, b.winning_prior);
  EXPECT_EQ(a.deff, b.deff);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.degradation_note, b.degradation_note);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].n, b.trace[i].n);
    EXPECT_EQ(a.trace[i].moe, b.trace[i].moe);
    EXPECT_EQ(a.trace[i].mu, b.trace[i].mu);
  }
}

void ExpectSameOutcome(const StepOutcome& a, const StepOutcome& b) {
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.annotated_triples, b.annotated_triples);
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.moe, b.moe);
}

std::vector<uint8_t> BytesOf(const ByteWriter& w) {
  return std::vector<uint8_t>(w.span().begin(), w.span().end());
}

/// Runs one done session for `design` under `config`, then checks both
/// snapshot forms of it against a store: the finished one `CheckpointManager`
/// writes, and the live one a done session wrote before the finished form
/// existed. The stop rule that fired lands in `stopped`.
void CheckCell(const SyntheticKg& kg, const Design& design,
               const EvaluationConfig& config, uint64_t seed,
               const std::string& label, StopReason* stopped = nullptr) {
  SCOPED_TRACE(label);
  OracleAnnotator oracle;
  auto sampler = design.make(kg);
  EvaluationSession original(*sampler, oracle, config, seed);
  ASSERT_TRUE(original.Run().ok());
  ASSERT_TRUE(original.done());
  const Result<EvaluationResult> report = original.Finish();
  ASSERT_TRUE(report.ok());
  if (stopped != nullptr) *stopped = report->stop_reason;
  const Result<StepOutcome> outcome = original.Step();
  ASSERT_TRUE(outcome.ok());
  ByteWriter finished_writer;
  original.SaveFinishedState(&finished_writer);
  const std::vector<uint8_t> finished = BytesOf(finished_writer);
  ByteWriter live_writer;
  original.SaveState(&live_writer);
  const std::vector<uint8_t> live = BytesOf(live_writer);
  ASSERT_FALSE(finished.empty());
  EXPECT_EQ(live[0], 5) << "the live form stays at snapshot version 5";
  EXPECT_NE(finished[0], live[0]);
  EXPECT_LT(finished.size(), live.size());

  // The checkpoint a finished audit writes is the finished form.
  const std::string path = TempPath(label);
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  CheckpointManager manager(store->get(), 1);
  ASSERT_TRUE(manager.Checkpoint(original).ok());
  auto stored = (*store)->LatestCheckpoint(1);
  ASSERT_TRUE(stored.ok() && stored->has_value());
  EXPECT_EQ(**stored, finished);

  // Restored from it, a fresh session reports, steps and checkpoints again
  // exactly as the original did.
  {
    auto fresh_sampler = design.make(kg);
    EvaluationSession restored(*fresh_sampler, oracle, config, seed);
    ASSERT_TRUE(manager.Resume(&restored).ok());
    EXPECT_TRUE(restored.done());
    EXPECT_EQ(restored.iterations(), original.iterations());
    const Result<StepOutcome> again = restored.Step();
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*again, *outcome);
    const Result<EvaluationResult> replayed = restored.Finish();
    ASSERT_TRUE(replayed.ok());
    ExpectSameResult(*replayed, *report);
    // No form of it may carry empty sets: both writers give the same bytes.
    ByteWriter resaved;
    restored.SaveState(&resaved);
    EXPECT_EQ(BytesOf(resaved), finished);
    CheckpointManager again_manager(store->get(), 2);
    ASSERT_TRUE(again_manager.Checkpoint(restored).ok());
    auto rewritten = (*store)->LatestCheckpoint(2);
    ASSERT_TRUE(rewritten.ok() && rewritten->has_value());
    EXPECT_EQ(**rewritten, finished);
  }

  // A live snapshot of a done session, as the store held one before the
  // finished form, restores to the identical report, and the session it
  // restores writes the same finished form. (Its re-saved live bytes may
  // list the set members in another order: restore rebuilds the sets by
  // re-insertion.)
  {
    auto fresh_sampler = design.make(kg);
    EvaluationSession restored(*fresh_sampler, oracle, config, seed);
    ByteReader r({live.data(), live.size()});
    ASSERT_TRUE(restored.LoadState(&r).ok());
    EXPECT_TRUE(r.empty());
    const Result<StepOutcome> again = restored.Step();
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*again, *outcome);
    const Result<EvaluationResult> replayed = restored.Finish();
    ASSERT_TRUE(replayed.ok());
    ExpectSameResult(*replayed, *report);
    ByteWriter resaved;
    restored.SaveFinishedState(&resaved);
    EXPECT_EQ(BytesOf(resaved), finished);
  }
  store->reset();
  std::remove(path.c_str());
}

TEST(FinishedSnapshotTest, EveryDesignAndMethodRestoresTheIdenticalReport) {
  const auto kg = TestKg();
  EvaluationConfig config;
  config.record_trace = true;
  uint64_t seed = 600;
  for (const Design& design : Designs()) {
    for (const IntervalMethod method : kMethods) {
      config.method = method;
      CheckCell(kg, design, config, ++seed,
                std::string(design.name) + "_" + IntervalMethodName(method));
    }
  }
}

TEST(FinishedSnapshotTest, EveryStopRuleRestoresTheIdenticalReport) {
  // Converged is covered above; here the triple cap, the cost budget and
  // an exhausted population stop the audit.
  const auto kg = TestKg();
  const std::vector<Design> designs = Designs();
  StopReason stopped = StopReason::kConverged;
  EvaluationConfig capped;
  capped.moe_threshold = 0.001;
  capped.max_triples = 150;
  CheckCell(kg, designs[0], capped, 701, "triple_cap", &stopped);
  EXPECT_EQ(stopped, StopReason::kTripleCapReached);
  EvaluationConfig budget;
  budget.moe_threshold = 0.001;
  budget.max_cost_seconds = 3000.0;
  CheckCell(kg, designs[2], budget, 702, "budget", &stopped);
  EXPECT_EQ(stopped, StopReason::kBudgetExhausted);
  EvaluationConfig exhaust;
  exhaust.moe_threshold = 0.001;
  CheckCell(TestKg(12), designs[1], exhaust, 703, "exhausted", &stopped);
  EXPECT_EQ(stopped, StopReason::kPopulationExhausted);
}

TEST(FinishedSnapshotTest, ARunnerReplaysAFinishedAuditWithoutWriting) {
  // The durable driver: the final checkpoint is the finished form, and a
  // fresh runner over the store replays the report with no oracle call, no
  // store hit and no new checkpoint.
  const auto kg = TestKg();
  EvaluationConfig config;
  config.record_trace = true;
  const std::string path = TempPath("runner");
  std::remove(path.c_str());
  EvaluationResult first;
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    OracleAnnotator oracle;
    TwcsSampler sampler(kg, TwcsConfig{});
    AuditRunner runner(sampler, oracle, config, 9,
                       {.store = store->get(),
                        .audit_id = 9,
                        .checkpoint = CheckpointOptions{}});
    ASSERT_EQ(runner.Advance(), RunOutcome::kDone);
    first = runner.result();
    EXPECT_GT(runner.counters().oracle_calls, 0u);
  }
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  const uint64_t size_before = (*store)->file_bytes();
  OracleAnnotator oracle;
  TwcsSampler sampler(kg, TwcsConfig{});
  AuditRunner runner(sampler, oracle, config, 9,
                     {.store = store->get(),
                      .audit_id = 9,
                      .checkpoint = CheckpointOptions{}});
  ASSERT_TRUE(*runner.Resume());
  ASSERT_EQ(runner.Advance(), RunOutcome::kDone);
  ExpectSameResult(runner.result(), first);
  EXPECT_EQ(runner.counters().oracle_calls, 0u);
  EXPECT_EQ(runner.counters().store_hits, 0u);
  EXPECT_EQ(runner.counters().checkpoints, 0u);
  EXPECT_EQ((*store)->file_bytes(), size_before);
  store->reset();
  std::remove(path.c_str());
}

// The bytes of a finished audit's checkpoint do not grow with its sample:
// an audit five times tighter annotates many times more triples, yet its
// final checkpoint differs only where a varint total widens.
TEST(FinishedSnapshotTest, FinishedCheckpointBytesDoNotGrowWithTheSample) {
  const auto kg = TestKg(5000);
  for (const Design& design : {Designs()[0], Designs()[2]}) {
    SCOPED_TRACE(design.name);
    size_t bytes[2] = {0, 0};
    uint64_t triples[2] = {0, 0};
    const double epsilons[2] = {0.05, 0.01};
    for (int i = 0; i < 2; ++i) {
      const std::string path =
          TempPath(std::string("growth_") + design.name + std::to_string(i));
      std::remove(path.c_str());
      auto store = AnnotationStore::Open(path);
      ASSERT_TRUE(store.ok());
      EvaluationConfig config;
      ASSERT_FALSE(config.record_trace);
      config.moe_threshold = epsilons[i];
      OracleAnnotator oracle;
      auto sampler = design.make(kg);
      AuditRunner runner(*sampler, oracle, config, 77,
                         {.store = store->get(),
                          .audit_id = 77,
                          .checkpoint = CheckpointOptions{}});
      ASSERT_EQ(runner.Advance(), RunOutcome::kDone)
          << runner.status().ToString();
      ASSERT_TRUE(runner.result().converged);
      triples[i] = runner.result().annotated_triples;
      auto checkpoint = (*store)->LatestCheckpoint(77);
      ASSERT_TRUE(checkpoint.ok() && checkpoint->has_value());
      bytes[i] = (*checkpoint)->size();
      store->reset();
      std::remove(path.c_str());
    }
    ASSERT_GE(triples[1], 10 * triples[0])
        << "the tighter audit must annotate a much larger sample";
    const size_t diff =
        bytes[1] > bytes[0] ? bytes[1] - bytes[0] : bytes[0] - bytes[1];
    EXPECT_LE(diff, 16u) << "finished checkpoint of " << triples[0]
                         << " triples is " << bytes[0] << " bytes, of "
                         << triples[1] << " triples " << bytes[1] << " bytes";
  }
}

}  // namespace
}  // namespace kgacc
