// The timing wrappers must not change what an audit computes: wrapped and
// unwrapped audits give byte-identical results for every design, through
// a direct run, a service batch (wrapped clones, shared decorators), a
// store-backed run, and a mid-audit snapshot/restore.

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "kgacc/kgacc.h"
#include "kgacc/net/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace kgacc;

const char* const kDesigns[] = {"srs", "twcs", "wcs", "rcs", "ssrs", "sys"};

KnowledgeGraph TestKg() {
  KnowledgeGraphBuilder builder;
  Rng rng(17);
  for (int s = 0; s < 600; ++s) {
    const int facts = 1 + static_cast<int>(rng.UniformInt(6));
    for (int o = 0; o < facts; ++o) {
      builder.Add("s" + std::to_string(s), "p" + std::to_string(o % 3),
                  "o" + std::to_string(s) + "_" + std::to_string(o),
                  rng.Bernoulli(0.85));
    }
  }
  return *builder.Build();
}

std::vector<uint8_t> Bytes(const EvaluationResult& r) {
  ByteWriter w;
  auto put_double = [&w](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    w.PutFixed64(bits);
  };
  put_double(r.mu);
  put_double(r.interval.lower);
  put_double(r.interval.upper);
  w.PutFixed64(r.annotated_triples);
  w.PutFixed64(r.distinct_triples);
  w.PutFixed64(r.distinct_entities);
  put_double(r.cost_seconds);
  put_double(r.cost_hours);
  w.PutFixed64(static_cast<uint64_t>(r.iterations));
  w.PutFixed64(r.winning_prior);
  put_double(r.deff);
  w.PutBool(r.converged);
  w.PutU8(static_cast<uint8_t>(r.stop_reason));
  w.PutBool(r.degraded);
  for (const TracePoint& p : r.trace) {
    w.PutFixed64(p.n);
    put_double(p.moe);
    put_double(p.mu);
  }
  return w.bytes();
}

EvaluationConfig Config(int i) {
  EvaluationConfig config;
  const IntervalMethod methods[] = {IntervalMethod::kAhpd,
                                    IntervalMethod::kWilson};
  config.method = methods[i % 2];
  config.moe_threshold = 0.06;
  config.record_trace = true;
  return config;
}

class TraceWrappersTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { SetTracing(true); }
  void TearDown() override { SetTracing(false); }

  std::unique_ptr<Sampler> Make() {
    auto sampler = MakeSamplerForDesign(kg_, GetParam(), 3);
    EXPECT_TRUE(sampler.ok());
    return std::move(sampler).value();
  }

  KnowledgeGraph kg_ = TestKg();
};

TEST_P(TraceWrappersTest, DirectRunIsByteIdentical) {
  // A stochastic annotator checks that every Rng draw is forwarded.
  NoisyAnnotator noisy(0.1);
  TimedAnnotator timed_noisy(&noisy, SpanKind::kOracle);
  for (int i = 0; i < 4; ++i) {
    auto plain = Make();
    TimedSampler wrapped(Make());
    const EvaluationConfig config = Config(i);
    auto a = RunEvaluation(*plain, noisy, config, 100 + i);
    auto b = RunEvaluation(wrapped, timed_noisy, config, 100 + i);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(Bytes(*a), Bytes(*b)) << GetParam() << " seed " << 100 + i;
  }
}

TEST_P(TraceWrappersTest, ServiceBatchWithWrappedClonesIsByteIdentical) {
  OracleAnnotator oracle;
  TimedAnnotator timed_oracle(&oracle, SpanKind::kOracle);
  auto prototype = Make();
  TimedSampler wrapped_prototype(prototype.get());
  std::vector<EvaluationJob> plain_jobs, wrapped_jobs;
  for (int i = 0; i < 16; ++i) {
    EvaluationJob job;
    job.sampler = prototype.get();
    job.annotator = &oracle;
    job.config = Config(i);
    job.seed = EvaluationService::DeriveJobSeed(7, i);
    plain_jobs.push_back(job);
    job.sampler = &wrapped_prototype;
    job.annotator = &timed_oracle;
    job.on_step = [i](const EvaluationSession&) {
      EndStep(static_cast<uint64_t>(i));
      return Status::OK();
    };
    wrapped_jobs.push_back(job);
  }
  EvaluationService service(EvaluationService::Options{.num_threads = 2});
  const EvaluationBatchResult a = service.RunBatch(plain_jobs);
  ResetTrace();
  const EvaluationBatchResult b = service.RunBatch(wrapped_jobs);
  uint64_t steps = 0;
  for (size_t i = 0; i < plain_jobs.size(); ++i) {
    ASSERT_TRUE(a.outcomes[i].status.ok());
    ASSERT_TRUE(b.outcomes[i].status.ok());
    EXPECT_EQ(Bytes(a.outcomes[i].result), Bytes(b.outcomes[i].result));
    steps += static_cast<uint64_t>(b.outcomes[i].result.iterations);
  }
  // Both workers' logs were merged: one step span per iteration, and the
  // step's self time plus its children's time is the step's time.
  const TraceTotals t = CollectTrace();
  EXPECT_EQ(t[SpanKind::kStep].count, steps);
  EXPECT_EQ(t[SpanKind::kSampling].count, steps);
  int64_t children = 0;
  for (const KindTotals& k : t.kinds) children += k.in_step_ns;
  EXPECT_EQ(t[SpanKind::kStep].total_ns, t[SpanKind::kStep].self_ns + children);
}

TEST_P(TraceWrappersTest, StoreBackedRunIsByteIdentical) {
  const std::string path = ::testing::TempDir() + "/trace_wrappers_" +
                           GetParam() + std::to_string(::getpid()) + ".wal";
  std::filesystem::remove(path);
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  OracleAnnotator oracle;
  TimedAnnotator timed_oracle(&oracle, SpanKind::kOracle);
  auto plain = Make();
  auto a = RunEvaluation(*plain, oracle, Config(0), 5);
  TimedSampler wrapped(Make());
  StoredAnnotator stored(&timed_oracle, store->get(), 1);
  TimedAnnotator timed_stored(&stored, SpanKind::kStoreAnnotate);
  auto b = RunEvaluation(wrapped, timed_stored, Config(0), 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Bytes(*a), Bytes(*b));
  EXPECT_GT(stored.oracle_calls(), 0u);
  store->reset();
  std::filesystem::remove(path);
}

TEST_P(TraceWrappersTest, SnapshotRestoreThroughWrapperIsByteIdentical) {
  OracleAnnotator oracle;
  auto plain = Make();
  auto expected = RunEvaluation(*plain, oracle, Config(1), 9);
  ASSERT_TRUE(expected.ok());

  TimedSampler first(Make());
  EvaluationSession head(first, oracle, Config(1), 9);
  for (int i = 0; i < 3 && !head.done(); ++i) ASSERT_TRUE(head.Step().ok());
  ByteWriter snapshot;
  head.SaveState(&snapshot);

  TimedSampler second(Make());
  EvaluationSession tail(second, oracle, Config(1), 9);
  ByteReader reader(snapshot.span());
  ASSERT_TRUE(tail.LoadState(&reader).ok());
  auto resumed = tail.Run();
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(Bytes(*expected), Bytes(*resumed));
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, TraceWrappersTest,
                         ::testing::ValuesIn(kDesigns));

}  // namespace
}  // namespace perfbench
