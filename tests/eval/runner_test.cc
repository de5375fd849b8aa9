// AuditRunner: one case per RunOutcome, plus the per-step ordering rule
// every driver (service, daemon, CLI) inherits from it:
//   budget → gate → step → annotator status → step hook → checkpoint.

#include "kgacc/eval/runner.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kgacc/eval/report.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/util/failpoint.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/kgacc_runner_test_" + name + "_" +
         std::to_string(::getpid());
}

SyntheticKg TestKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 500;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.84;
  cfg.seed = 23;
  return *SyntheticKg::Create(cfg);
}

BackoffPolicy FastBackoff() {
  BackoffPolicy policy;
  policy.initial_delay_ms = 0.0001;
  policy.max_delay_ms = 0.001;
  return policy;
}

constexpr uint64_t kSeed = 31;

std::string Json(const EvaluationResult& result) {
  ReportContext context;
  context.dataset_name = "runner";
  context.design_name = "SRS";
  return RenderJsonReport(context, EvaluationConfig{}, result);
}

class RunnerTest : public testing::Test {
 protected:
  void SetUp() override {
    OracleAnnotator oracle;
    SrsSampler sampler(kg_, SrsConfig{});
    reference_ = *RunEvaluation(sampler, oracle, EvaluationConfig{}, kSeed);
    ASSERT_GE(reference_.iterations, 5) << "tests need a multi-step audit";
    path_ = TempPath(testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    std::remove(path_.c_str());
    auto store = AnnotationStore::Open(path_);
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }
  void TearDown() override {
    store_.reset();
    std::remove(path_.c_str());
  }

  /// Store + checkpoint wiring (every step unless told otherwise).
  AuditRunner::Wiring Durable(uint64_t every_steps = 1) {
    AuditRunner::Wiring wiring;
    wiring.store = store_.get();
    wiring.audit_id = 1;
    wiring.store_options.backoff = FastBackoff();
    wiring.checkpoint = CheckpointOptions{.every_steps = every_steps};
    wiring.checkpoint->backoff = FastBackoff();
    return wiring;
  }

  /// A fresh durable runner resumed from whatever the store holds.
  std::unique_ptr<AuditRunner> Resumed(SrsSampler& sampler,
                                       OracleAnnotator& oracle) {
    auto runner = std::make_unique<AuditRunner>(
        sampler, oracle, EvaluationConfig{}, kSeed, Durable());
    EXPECT_TRUE(runner->Resume().ok());
    return runner;
  }

  const SyntheticKg kg_ = TestKg();
  EvaluationResult reference_;
  std::string path_;
  std::unique_ptr<AnnotationStore> store_;
};

TEST_F(RunnerTest, DoneMatchesRunEvaluation) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed, {});
  EXPECT_EQ(runner.Advance(), RunOutcome::kDone);
  EXPECT_TRUE(runner.status().ok());
  EXPECT_EQ(Json(runner.result()), Json(reference_));
  EXPECT_TRUE(runner.last_step().done);
  const RunCounters counters = runner.counters();
  EXPECT_EQ(counters.oracle_calls, 0u);  // No store wrap: nothing counted.
  EXPECT_FALSE(counters.degraded);
}

TEST_F(RunnerTest, DurableDoneSnapshotsOncePerStepAndFlushes) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed, Durable());
  EXPECT_EQ(runner.Advance(), RunOutcome::kDone);
  EXPECT_EQ(Json(runner.result()), Json(reference_));
  const RunCounters counters = runner.counters();
  // The final snapshot is the last step's: no duplicate frame at finish.
  EXPECT_EQ(counters.checkpoints,
            static_cast<uint64_t>(reference_.iterations));
  EXPECT_EQ(counters.oracle_calls, store_->num_labeled());
  EXPECT_EQ(counters.checkpoint_failures, 0u);
}

TEST_F(RunnerTest, DegradedFinishesWithTheExactEstimate) {
  ScopedFailpoints armed("store.append=prob:1");
  ASSERT_TRUE(armed.status().ok());
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed, Durable());
  EXPECT_EQ(runner.Advance(), RunOutcome::kDegraded);
  EXPECT_TRUE(runner.status().ok());
  const RunCounters counters = runner.counters();
  EXPECT_TRUE(counters.degraded);
  EXPECT_FALSE(counters.degradation_note.empty());
  EXPECT_GT(counters.retries, 0u);
  EXPECT_EQ(store_->num_labeled(), 0u);
  EXPECT_EQ(runner.result().mu, reference_.mu);
  EXPECT_EQ(runner.result().interval.lower, reference_.interval.lower);
  EXPECT_EQ(runner.result().interval.upper, reference_.interval.upper);
}

TEST_F(RunnerTest, ParkedWhenTheStepCountRunsOut) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed, Durable());
  EXPECT_EQ(runner.Advance(2), RunOutcome::kParked);
  EXPECT_TRUE(runner.status().ok());
  EXPECT_EQ(runner.session().iterations(), 2);
  EXPECT_FALSE(runner.last_step().done);
  // Stepping on in slices lands on the uninterrupted result.
  RunOutcome outcome = RunOutcome::kParked;
  while (outcome == RunOutcome::kParked) outcome = runner.Advance(1);
  EXPECT_EQ(outcome, RunOutcome::kDone);
  EXPECT_EQ(Json(runner.result()), Json(reference_));
}

TEST_F(RunnerTest, ParkedByTheGateSnapshotsAndResumesByteIdentical) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  bool open = true;
  AuditRunner::Wiring wiring = Durable(/*every_steps=*/100);
  wiring.gate = [&] {
    return open ? Status::OK() : Status::QuotaExceeded("budget spent");
  };
  wiring.on_step = [&](const EvaluationSession& session) {
    if (session.iterations() == 3) open = false;
    return Status::OK();
  };
  {
    AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed,
                       std::move(wiring));
    EXPECT_EQ(runner.Advance(), RunOutcome::kParked);
    EXPECT_EQ(runner.status().code(), StatusCode::kQuotaExceeded);
    EXPECT_EQ(runner.session().iterations(), 3);
    // The cadence (100) skipped steps 1-3; parking snapshotted step 3.
    EXPECT_EQ(runner.counters().checkpoints, 1u);
    EXPECT_EQ(runner.Advance(), RunOutcome::kParked);  // Still closed.
    EXPECT_EQ(runner.session().iterations(), 3);
    EXPECT_EQ(runner.counters().checkpoints, 1u);  // Already covered.
  }
  OracleAnnotator fresh;
  SrsSampler fresh_sampler(kg_, SrsConfig{});
  auto resumed = Resumed(fresh_sampler, fresh);
  EXPECT_EQ(resumed->session().iterations(), 3);
  EXPECT_EQ(resumed->Advance(), RunOutcome::kDone);
  EXPECT_EQ(Json(resumed->result()), Json(reference_));
  EXPECT_GT(resumed->counters().store_hits + resumed->counters().oracle_calls,
            0u);
}

TEST_F(RunnerTest, StepBudgetStopsAfterTheStepsCheckpoint) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner::Wiring wiring = Durable(/*every_steps=*/2);
  wiring.max_steps = 3;
  {
    AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed,
                       std::move(wiring));
    EXPECT_EQ(runner.Advance(), RunOutcome::kDeadline);
    EXPECT_EQ(runner.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(runner.session().iterations(), 3);
    // Step 2 on cadence, step 3 by the budget stop.
    EXPECT_EQ(runner.counters().checkpoints, 2u);
    // A run already at its budget takes no further step.
    EXPECT_EQ(runner.Advance(), RunOutcome::kDeadline);
    EXPECT_EQ(runner.session().iterations(), 3);
    // A larger budget continues from where it stopped.
    runner.SetBudget(4, 0.0);
    EXPECT_EQ(runner.Advance(), RunOutcome::kDeadline);
    EXPECT_EQ(runner.session().iterations(), 4);
  }
  OracleAnnotator fresh;
  SrsSampler fresh_sampler(kg_, SrsConfig{});
  auto resumed = Resumed(fresh_sampler, fresh);
  EXPECT_EQ(resumed->session().iterations(), 4);
  EXPECT_EQ(resumed->Advance(), RunOutcome::kDone);
  EXPECT_EQ(Json(resumed->result()), Json(reference_));
}

TEST_F(RunnerTest, WallClockDeadlineStopsBeforeTheNextStep) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner::Wiring wiring;
  wiring.deadline_seconds = 1e-9;  // Spent before the first step.
  AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed,
                     std::move(wiring));
  EXPECT_EQ(runner.Advance(), RunOutcome::kDeadline);
  EXPECT_EQ(runner.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(runner.session().iterations(), 0);
  runner.SetBudget(0, 0.0);  // Lifted: the audit runs to the end.
  EXPECT_EQ(runner.Advance(), RunOutcome::kDone);
  EXPECT_EQ(Json(runner.result()), Json(reference_));
}

TEST_F(RunnerTest, FailedHookStopsTheRunBeforeItsCheckpoint) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner::Wiring wiring = Durable();
  wiring.on_step = [](const EvaluationSession& session) {
    return session.iterations() == 2 ? Status::Internal("hook broke")
                                     : Status::OK();
  };
  AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed,
                     std::move(wiring));
  EXPECT_EQ(runner.Advance(), RunOutcome::kFailed);
  EXPECT_EQ(runner.status().code(), StatusCode::kInternal);
  EXPECT_NE(runner.status().message().find("hook broke"), std::string::npos);
  EXPECT_EQ(runner.counters().checkpoints, 1u);
}

TEST_F(RunnerTest, FailedStepSurfacesTheSessionError) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  EvaluationConfig bad;
  bad.moe_threshold = -1.0;
  AuditRunner runner(sampler, oracle, bad, kSeed, {});
  EXPECT_EQ(runner.Advance(), RunOutcome::kFailed);
  EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RunnerTest, RefusedLabelFailsBeforeTheHookAndTheCheckpoint) {
  // The ordering rule. Steps 1-2 are healthy; the hook then arms a store
  // failure that exhausts the first append of step 3 (fail-fast). That
  // step must reach neither the hook nor a snapshot, and Checkpoint()
  // must refuse to certify it later.
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  AuditRunner::Wiring wiring = Durable();
  wiring.store_options.write_error_mode =
      StoredAnnotator::WriteErrorMode::kFailFast;
  std::vector<int> hooked;
  wiring.on_step = [&](const EvaluationSession& session) {
    hooked.push_back(session.iterations());
    if (session.iterations() == 2) {
      EXPECT_TRUE(FailpointRegistry::Instance()
                      .Arm("store.append=times:4")
                      .ok());
    }
    return Status::OK();
  };
  {
    AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed,
                       std::move(wiring));
    EXPECT_EQ(runner.Advance(), RunOutcome::kFailed);
    FailpointRegistry::Instance().DisarmAll();
    EXPECT_EQ(runner.status().code(), StatusCode::kIoError);
    EXPECT_EQ(runner.session().iterations(), 3);
    EXPECT_EQ(hooked, (std::vector<int>{1, 2}));
    EXPECT_EQ(runner.counters().checkpoints, 2u);
    EXPECT_EQ(runner.Checkpoint().code(), StatusCode::kIoError);
    EXPECT_EQ(runner.counters().checkpoints, 2u);
  }
  // The disarmed resume restarts from step 2 and re-judges step 3's
  // refused labels, landing on the uninterrupted report.
  OracleAnnotator fresh;
  SrsSampler fresh_sampler(kg_, SrsConfig{});
  auto resumed = Resumed(fresh_sampler, fresh);
  EXPECT_EQ(resumed->session().iterations(), 2);
  EXPECT_EQ(resumed->Advance(), RunOutcome::kDone);
  EXPECT_GT(resumed->counters().oracle_calls, 0u);
  EXPECT_EQ(Json(resumed->result()), Json(reference_));
}

TEST_F(RunnerTest, ResumedFinishedAuditReportsWithoutDrawing) {
  {
    OracleAnnotator oracle;
    SrsSampler sampler(kg_, SrsConfig{});
    AuditRunner runner(sampler, oracle, EvaluationConfig{}, kSeed,
                       Durable());
    ASSERT_EQ(runner.Advance(), RunOutcome::kDone);
  }
  const uint64_t bytes_before = store_->file_bytes();
  OracleAnnotator oracle;
  SrsSampler sampler(kg_, SrsConfig{});
  auto resumed = Resumed(sampler, oracle);
  EXPECT_TRUE(resumed->session().done());
  EXPECT_EQ(resumed->Advance(1), RunOutcome::kDone);
  EXPECT_TRUE(resumed->last_step().done);
  EXPECT_EQ(Json(resumed->result()), Json(reference_));
  const RunCounters counters = resumed->counters();
  EXPECT_EQ(counters.oracle_calls + counters.store_hits, 0u);
  EXPECT_EQ(counters.checkpoints, 0u);
  EXPECT_EQ(store_->file_bytes(), bytes_before);
}

TEST_F(RunnerTest, PopulationExhaustedAuditRestoresAsDone) {
  // Without replacement the last step draws an empty batch: the audit
  // finishes without a new iteration, so its final snapshot differs from
  // the step's only in `done` and must still be written (the cadence of
  // every step already snapshotted that iteration).
  SyntheticKgConfig cfg;
  cfg.num_clusters = 10;
  cfg.mean_cluster_size = 3.0;
  cfg.exact_total_triples = 30;
  cfg.seed = 5;
  const SyntheticKg small = *SyntheticKg::Create(cfg);
  SrsConfig wor;
  wor.without_replacement = true;
  EvaluationConfig config;
  config.moe_threshold = 1e-6;  // Unreachable: only exhaustion stops it.
  std::string finished;
  {
    OracleAnnotator oracle;
    SrsSampler sampler(small, wor);
    AuditRunner runner(sampler, oracle, config, kSeed, Durable());
    ASSERT_EQ(runner.Advance(), RunOutcome::kDone);
    ASSERT_EQ(runner.result().stop_reason, StopReason::kPopulationExhausted);
    finished = Json(runner.result());
  }
  const uint64_t bytes_before = store_->file_bytes();
  OracleAnnotator oracle;
  SrsSampler sampler(small, wor);
  AuditRunner resumed(sampler, oracle, config, kSeed, Durable());
  ASSERT_TRUE(resumed.Resume().ok());
  EXPECT_TRUE(resumed.session().done());
  EXPECT_EQ(resumed.Advance(1), RunOutcome::kDone);
  EXPECT_EQ(Json(resumed.result()), finished);
  EXPECT_EQ(resumed.counters().checkpoints, 0u);
  EXPECT_EQ(store_->file_bytes(), bytes_before);
}

}  // namespace
}  // namespace kgacc
