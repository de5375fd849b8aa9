// Component-level snapshot round trips: every serialized piece of session
// state — RNG, each estimator-accumulator variant, the annotated sample,
// the HPD warm carry, and each stateful sampler design — must restore to a
// state that behaves *identically* going forward, not merely approximately.
// Corrupt or crafted payloads must come back as a Status, never an abort.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/eval/session.h"
#include "kgacc/intervals/ahpd.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/net/protocol.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/flat_set.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg TestKg(uint64_t seed = 21) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 200;
  cfg.mean_cluster_size = 4.0;
  cfg.accuracy = 0.85;
  cfg.seed = seed;
  return *SyntheticKg::Create(cfg);
}

TEST(SnapshotTest, RngRoundTripContinuesTheIdenticalStream) {
  Rng original(42);
  // Consume an odd number of normals so the spare-value cache is armed —
  // the subtle half of the state a naive save would drop.
  for (int i = 0; i < 7; ++i) original.Normal();
  for (int i = 0; i < 13; ++i) original.Next();
  ByteWriter w;
  original.SaveState(&w);
  Rng restored(999);  // Different seed: everything must come from the snapshot.
  ByteReader r(w.span());
  ASSERT_TRUE(restored.LoadState(&r).ok());
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(original.Next(), restored.Next());
  }
  // And the buffered normal: interleave draws of every flavor.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(original.Normal(), restored.Normal());
    ASSERT_EQ(original.Uniform(), restored.Uniform());
    ASSERT_EQ(original.Gamma(2.5), restored.Gamma(2.5));
  }
}

TEST(SnapshotTest, RngRejectsTruncatedAndAllZeroState) {
  Rng rng(1);
  ByteWriter w;
  rng.SaveState(&w);
  ByteReader truncated(w.span().subspan(0, w.size() - 1));
  Rng target(2);
  EXPECT_FALSE(target.LoadState(&truncated).ok());
  ByteWriter zeros;
  for (int i = 0; i < 4; ++i) zeros.PutFixed64(0);
  zeros.PutBool(false);
  zeros.PutDouble(0.0);
  ByteReader zero_reader(zeros.span());
  EXPECT_FALSE(target.LoadState(&zero_reader).ok());
}

AnnotatedUnit RandomUnit(Rng* rng, uint32_t strata) {
  AnnotatedUnit unit;
  unit.cluster = rng->UniformInt(1000);
  unit.cluster_population = 1 + rng->UniformInt(40);
  unit.stratum = static_cast<uint32_t>(rng->UniformInt(strata));
  unit.drawn = 1 + static_cast<uint32_t>(
                       rng->UniformInt(unit.cluster_population));
  unit.correct = static_cast<uint32_t>(rng->UniformInt(unit.drawn + 1));
  return unit;
}

TEST(SnapshotTest, EveryAccumulatorVariantRoundTripsMidStream) {
  const EstimatorKind kinds[] = {EstimatorKind::kSrs, EstimatorKind::kCluster,
                                 EstimatorKind::kRcs,
                                 EstimatorKind::kStratified};
  const std::vector<double> weights = {0.5, 0.3, 0.2};
  for (const EstimatorKind kind : kinds) {
    Rng rng(static_cast<uint64_t>(kind) + 100);
    EstimatorAccumulator original(kind);
    for (int i = 0; i < 200; ++i) original.Add(RandomUnit(&rng, 3));
    ByteWriter w;
    original.SaveState(&w);
    EstimatorAccumulator restored(kind);
    ByteReader r(w.span());
    ASSERT_TRUE(restored.LoadState(&r).ok());
    EXPECT_TRUE(r.empty());
    // Identical estimates now...
    const auto want = original.Estimate(&weights);
    const auto got = restored.Estimate(&weights);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want->mu, got->mu);
    EXPECT_EQ(want->variance, got->variance);
    EXPECT_EQ(want->n, got->n);
    // ...and identical estimates after both ingest the same future stream
    // (the running doubles must restore bit-exact, not re-derived).
    Rng future_a(7), future_b(7);
    for (int i = 0; i < 50; ++i) {
      original.Add(RandomUnit(&future_a, 3));
      restored.Add(RandomUnit(&future_b, 3));
    }
    const auto want2 = original.Estimate(&weights);
    const auto got2 = restored.Estimate(&weights);
    ASSERT_TRUE(want2.ok() && got2.ok());
    EXPECT_EQ(want2->mu, got2->mu);
    EXPECT_EQ(want2->variance, got2->variance);
  }
}

TEST(SnapshotTest, AccumulatorRejectsKindMismatch) {
  EstimatorAccumulator srs(EstimatorKind::kSrs);
  ByteWriter w;
  srs.SaveState(&w);
  EstimatorAccumulator cluster(EstimatorKind::kCluster);
  ByteReader r(w.span());
  EXPECT_FALSE(cluster.LoadState(&r).ok());
}

TEST(SnapshotTest, AnnotatedSampleRoundTripsDistinctSets) {
  Rng rng(5);
  AnnotatedSample original;
  for (int i = 0; i < 300; ++i) {
    const AnnotatedUnit unit = RandomUnit(&rng, 2);
    for (uint32_t d = 0; d < unit.drawn; ++d) {
      original.MarkAnnotated(TripleRef{unit.cluster, d});
    }
  }
  ByteWriter w;
  original.SaveState(&w);
  AnnotatedSample restored;
  ByteReader r(w.span());
  ASSERT_TRUE(restored.LoadState(&r).ok());
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(restored.num_distinct_entities(),
            original.num_distinct_entities());
  EXPECT_EQ(restored.num_distinct_triples(), original.num_distinct_triples());
  // Re-marking a known triple is recognized as a duplicate after restore.
  Rng probe(5);
  const AnnotatedUnit first = RandomUnit(&probe, 2);
  EXPECT_FALSE(restored.MarkAnnotated(TripleRef{first.cluster, 0}));
}

TEST(SnapshotTest, AhpdWarmStateRoundTripsEveryField) {
  AhpdWarmState original;
  original.Sync(3);
  original.priors[0].valid = true;
  original.priors[0].interval = {0.71234567891234, 0.83456789123456};
  original.priors[2].valid = true;
  original.priors[2].interval = {1e-300, 0.99999999999999989};

  ByteWriter w;
  SaveAhpdWarmState(original, &w);
  AhpdWarmState restored;
  ByteReader r(w.span());
  ASSERT_TRUE(LoadAhpdWarmState(&r, &restored).ok());
  EXPECT_TRUE(r.empty());
  ASSERT_EQ(restored.priors.size(), 3u);
  const auto& p0 = restored.priors[0];
  EXPECT_TRUE(p0.valid);
  EXPECT_EQ(p0.interval.lower, 0.71234567891234);
  EXPECT_EQ(p0.interval.upper, 0.83456789123456);
  EXPECT_FALSE(restored.priors[1].valid);
  EXPECT_TRUE(restored.priors[2].valid);
  EXPECT_EQ(restored.priors[2].interval.lower, 1e-300);
  EXPECT_EQ(restored.priors[2].interval.upper, 0.99999999999999989);
}

/// Draws `steps` batches, saves the sampler, restores into a fresh clone,
/// and verifies the next `steps` batches agree draw for draw under
/// identical Rng streams.
void CheckSamplerRoundTrip(const KgView& kg, Sampler& original,
                           uint64_t seed, int steps) {
  Rng rng(seed);
  SampleBatch batch;
  original.Reset();
  for (int i = 0; i < steps; ++i) {
    ASSERT_TRUE(original.NextBatch(&rng, &batch).ok());
  }
  ByteWriter w;
  original.SaveState(&w);
  ByteWriter rng_state;
  rng.SaveState(&rng_state);

  std::unique_ptr<Sampler> restored = original.Clone();
  ASSERT_NE(restored, nullptr);
  ByteReader r(w.span());
  restored->Reset();
  ASSERT_TRUE(restored->LoadState(&r).ok());
  EXPECT_TRUE(r.empty());
  Rng restored_rng(0);
  ByteReader rng_reader(rng_state.span());
  ASSERT_TRUE(restored_rng.LoadState(&rng_reader).ok());

  SampleBatch batch_a, batch_b;
  for (int i = 0; i < steps; ++i) {
    ASSERT_TRUE(original.NextBatch(&rng, &batch_a).ok());
    ASSERT_TRUE(restored->NextBatch(&restored_rng, &batch_b).ok());
    ASSERT_EQ(batch_a.size(), batch_b.size());
    for (size_t u = 0; u < batch_a.size(); ++u) {
      EXPECT_EQ(batch_a.unit(u).cluster, batch_b.unit(u).cluster);
      EXPECT_EQ(batch_a.unit(u).stratum, batch_b.unit(u).stratum);
      const auto offs_a = batch_a.offsets(u);
      const auto offs_b = batch_b.offsets(u);
      ASSERT_EQ(offs_a.size(), offs_b.size());
      for (size_t k = 0; k < offs_a.size(); ++k) {
        EXPECT_EQ(offs_a[k], offs_b[k]);
      }
    }
  }
}

TEST(SnapshotTest, SrsWithoutReplacementStateRoundTrips) {
  const auto kg = TestKg();
  SrsSampler sampler(kg, SrsConfig{.batch_size = 30,
                                   .without_replacement = true});
  CheckSamplerRoundTrip(kg, sampler, 11, 6);
}

TEST(SnapshotTest, SystematicSweepPositionRoundTrips) {
  const auto kg = TestKg();
  SystematicSampler sampler(kg, SystematicConfig{.batch_size = 25,
                                                 .skip = 13});
  CheckSamplerRoundTrip(kg, sampler, 12, 6);
}

TEST(SnapshotTest, StratifiedAllocationCarryRoundTrips) {
  const auto kg = TestKg();
  StratifiedSampler sampler(kg, StratifiedConfig{.batch_size = 17});
  CheckSamplerRoundTrip(kg, sampler, 13, 6);
}

TEST(SnapshotTest, StatelessClusterSamplersRoundTripTrivially) {
  const auto kg = TestKg();
  TwcsSampler twcs(kg, TwcsConfig{});
  CheckSamplerRoundTrip(kg, twcs, 14, 4);
  WcsSampler wcs(kg, ClusterConfig{});
  CheckSamplerRoundTrip(kg, wcs, 15, 4);
  RcsSampler rcs(kg, ClusterConfig{});
  CheckSamplerRoundTrip(kg, rcs, 16, 4);
}

TEST(SnapshotTest, SessionSnapshotRejectsOtherFormatVersions) {
  // v2 inserted fields mid-payload (reservoir capacity + subsample), v3
  // slimmed the HPD warm carry, v4 dropped the unit history and its
  // reservoir, and v5 dropped the sample's and the RCS sums' copies of the
  // totals; a payload stamped with another version must fail the explicit
  // version gate up front, not misparse with every later field shifted.
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  ByteWriter w;
  session.SaveState(&w);
  std::vector<uint8_t> bytes(w.span().begin(), w.span().end());
  ASSERT_FALSE(bytes.empty());
  // v1 is the pre-reservoir format; v2 carried the HPD warm cache keys and
  // BFGS Hessian that v3 dropped; v3 carried the unit history; v4 carried
  // the totals three times.
  for (const uint8_t old_version : {1, 2, 3, 4}) {
    bytes[0] = old_version;
    EvaluationSession same(sampler, annotator, config, 42);
    ByteReader r({bytes.data(), bytes.size()});
    const Status status = same.LoadState(&r);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("session snapshot version " +
                                    std::to_string(old_version) +
                                    " is incompatible"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(SnapshotTest, SessionSnapshotWithCraftedStopReasonIsRejected) {
  // Without a trace the payload ends in the stop reason byte, the zero
  // trace count, the done flag and the MoE double. A stop reason past
  // kPopulationExhausted names no enumerator and must fail the load.
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  ASSERT_FALSE(config.record_trace);
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  ASSERT_FALSE(session.done());
  ByteWriter w;
  session.SaveState(&w);
  std::vector<uint8_t> bytes(w.span().begin(), w.span().end());
  const size_t at = bytes.size() - (1 + 1 + 1 + 8);
  ASSERT_EQ(bytes[at], uint8_t(StopReason::kConverged));
  ASSERT_EQ(bytes[at + 1], 0);
  bytes[at] = uint8_t(StopReason::kPopulationExhausted) + 1;
  {
    EvaluationSession same(sampler, annotator, config, 42);
    ByteReader r({bytes.data(), bytes.size()});
    EXPECT_FALSE(same.LoadState(&r).ok());
  }
  bytes[at] = uint8_t(StopReason::kPopulationExhausted);
  EvaluationSession same(sampler, annotator, config, 42);
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_TRUE(same.LoadState(&r).ok());
}

TEST(SnapshotTest, SessionSnapshotRejectsFingerprintMismatch) {
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  ByteWriter w;
  session.SaveState(&w);

  // Different seed.
  {
    EvaluationSession other(sampler, annotator, config, 43);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Different interval method.
  {
    EvaluationConfig wald = config;
    wald.method = IntervalMethod::kWald;
    EvaluationSession other(sampler, annotator, wald, 42);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Different design.
  {
    TwcsSampler twcs(kg, TwcsConfig{});
    EvaluationSession other(twcs, annotator, config, 42);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Same prior *count* but different prior parameters: a snapshot solved
  // under one prior set must not restore under another.
  {
    EvaluationConfig other_priors = config;
    ASSERT_FALSE(other_priors.priors.empty());
    other_priors.priors[0].a += 1.0;
    EvaluationSession other(sampler, annotator, other_priors, 42);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Matching everything: accepted.
  {
    EvaluationSession same(sampler, annotator, config, 42);
    ByteReader r(w.span());
    EXPECT_TRUE(same.LoadState(&r).ok());
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(same.iterations(), session.iterations());
  }
}

/// The finished snapshot of a done SRS audit under `config`, seed 42.
std::vector<uint8_t> FinishedSnapshot(Sampler& sampler, Annotator& annotator,
                                      const EvaluationConfig& config) {
  EvaluationSession session(sampler, annotator, config, 42);
  EXPECT_TRUE(session.Run().ok());
  ByteWriter w;
  session.SaveFinishedState(&w);
  return std::vector<uint8_t>(w.span().begin(), w.span().end());
}

TEST(SnapshotTest, FinishedSnapshotRejectsFingerprintMismatch) {
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  const std::vector<uint8_t> bytes =
      FinishedSnapshot(sampler, annotator, config);
  const auto load = [&](Sampler& target_sampler,
                        const EvaluationConfig& target_config,
                        uint64_t seed) {
    EvaluationSession target(target_sampler, annotator, target_config, seed);
    ByteReader r({bytes.data(), bytes.size()});
    const Status status = target.LoadState(&r);
    EXPECT_TRUE(!status.ok() || r.empty());
    return status.ok();
  };
  EXPECT_FALSE(load(sampler, config, 43));  // Different seed.
  EvaluationConfig wald = config;
  wald.method = IntervalMethod::kWald;
  EXPECT_FALSE(load(sampler, wald, 42));  // Different interval method.
  TwcsSampler twcs(kg, TwcsConfig{});
  EXPECT_FALSE(load(twcs, config, 42));  // Different design.
  EvaluationConfig other_priors = config;
  other_priors.priors[0].a += 1.0;
  EXPECT_FALSE(load(sampler, other_priors, 42));  // Other prior parameters.
  EvaluationConfig tighter = config;
  tighter.moe_threshold /= 2;
  EXPECT_FALSE(load(sampler, tighter, 42));  // Other MoE budget.
  EXPECT_TRUE(load(sampler, config, 42));  // Matching everything.
}

TEST(SnapshotTest, FinishedSnapshotWithCraftedStopReasonIsRejected) {
  // The finished form ends like the live one: the stop reason byte, the
  // zero trace count, the done flag and the MoE double.
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  ASSERT_FALSE(config.record_trace);
  std::vector<uint8_t> bytes = FinishedSnapshot(sampler, annotator, config);
  const size_t at = bytes.size() - (1 + 1 + 1 + 8);
  ASSERT_EQ(bytes[at], uint8_t(StopReason::kConverged));
  ASSERT_EQ(bytes[at + 1], 0);
  ASSERT_EQ(bytes[at + 2], 1);
  const auto load = [&] {
    EvaluationSession same(sampler, annotator, config, 42);
    ByteReader r({bytes.data(), bytes.size()});
    return same.LoadState(&r).ok();
  };
  bytes[at] = uint8_t(StopReason::kPopulationExhausted) + 1;
  EXPECT_FALSE(load());
  bytes[at] = uint8_t(StopReason::kPopulationExhausted);
  EXPECT_TRUE(load());
  // A finished snapshot that is not done would leave a session that steps
  // without its RNG, sampler or distinct sets.
  bytes[at + 2] = 0;
  EXPECT_FALSE(load());
}

TEST(SnapshotTest, FinishedSnapshotClaimingMoreThanItAnnotatedIsRejected) {
  // The finished form carries the distinct-set sizes in place of the sets;
  // a size beyond the annotated triples (or more entities than triples)
  // was never written by a real session.
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Run().ok());
  const Result<EvaluationResult> report = session.Finish();
  ASSERT_TRUE(report.ok());
  ByteWriter w;
  session.SaveFinishedState(&w);
  const std::vector<uint8_t> bytes(w.span().begin(), w.span().end());
  // The two sizes sit right before the outcome: mu, the interval, the
  // iterations, the winning prior, deff, converged, the stop reason, the
  // (empty) trace, done and the MoE.
  ByteWriter sizes;
  sizes.PutVarint(report->distinct_entities);
  sizes.PutVarint(report->distinct_triples);
  ByteWriter outcome;
  outcome.PutZigzag(report->iterations);
  outcome.PutVarint(report->winning_prior);
  const size_t at =
      bytes.size() - (outcome.size() + 4 * 8 + 1 + 1 + 1 + 1 + 8) -
      sizes.size();
  ASSERT_TRUE(std::equal(sizes.span().begin(), sizes.span().end(),
                         bytes.begin() + at));
  const auto with_sizes = [&](uint64_t entities, uint64_t triples) {
    ByteWriter crafted;
    crafted.PutVarint(entities);
    crafted.PutVarint(triples);
    std::vector<uint8_t> out(bytes.begin(), bytes.begin() + at);
    out.insert(out.end(), crafted.span().begin(), crafted.span().end());
    out.insert(out.end(), bytes.begin() + at + sizes.size(), bytes.end());
    EvaluationSession target(sampler, annotator, config, 42);
    ByteReader r({out.data(), out.size()});
    return target.LoadState(&r).ok();
  };
  EXPECT_TRUE(with_sizes(report->distinct_entities, report->distinct_triples));
  EXPECT_FALSE(
      with_sizes(report->distinct_entities, report->annotated_triples + 1));
  EXPECT_FALSE(
      with_sizes(report->distinct_triples + 1, report->distinct_triples));
}

// Without the trace, a session snapshot is a fixed set of fields plus the
// two distinct-set payloads: nothing else may grow with the sample. Only
// the varint totals (units, triples, correct, iterations) widen, by a byte
// at a time.
TEST(SnapshotTest, SessionSnapshotGrowsOnlyWithTheDistinctSets) {
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  ASSERT_FALSE(config.record_trace);
  EvaluationSession session(sampler, annotator, config, 42);
  const auto set_payload = [](uint64_t members) {
    ByteWriter count;
    count.PutVarint(members);
    return count.size() + members * sizeof(uint64_t);
  };
  size_t smallest = SIZE_MAX, largest = 0;
  int steps = 0;
  while (!session.done()) {
    ASSERT_TRUE(session.Step().ok());
    ++steps;
    ByteWriter w;
    session.SaveState(&w);
    const size_t sets =
        set_payload(session.sample().num_distinct_entities()) +
        set_payload(session.sample().num_distinct_triples());
    ASSERT_GT(w.size(), sets);
    smallest = std::min(smallest, w.size() - sets);
    largest = std::max(largest, w.size() - sets);
  }
  EXPECT_GE(steps, 10);
  EXPECT_LE(largest - smallest, 16u)
      << "the snapshot outside its distinct sets grew over " << steps
      << " steps";
}

constexpr uint64_t kCraftedCount = uint64_t{1} << 40;

/// `bytes` with the one-byte zero count at `pos` replaced by a varint of
/// 2^40: a few bytes that claim to hold a trillion elements.
std::vector<uint8_t> WithCraftedCount(std::span<const uint8_t> bytes,
                                      size_t pos) {
  EXPECT_EQ(bytes[pos], 0) << "no zero count at offset " << pos;
  ByteWriter count;
  count.PutVarint(kCraftedCount);
  std::vector<uint8_t> out(bytes.begin(), bytes.begin() + pos);
  out.insert(out.end(), count.span().begin(), count.span().end());
  out.insert(out.end(), bytes.begin() + pos + 1, bytes.end());
  return out;
}

// Every decoder that sizes an allocation from a count in its input must
// reject a count the remaining bytes cannot hold instead of allocating it.
TEST(SnapshotTest, CraftedFlatSetCountIsRejected) {
  ByteWriter w;
  SaveFlatSet64(FlatSet64(), &w);  // The empty set is its zero count.
  const std::vector<uint8_t> crafted = WithCraftedCount(w.span(), 0);
  FlatSet64 set;
  ByteReader r({crafted.data(), crafted.size()});
  EXPECT_FALSE(LoadFlatSet64(&r, &set).ok());
}

TEST(SnapshotTest, CraftedAhpdWarmStateCountIsRejected) {
  ByteWriter w;
  SaveAhpdWarmState(AhpdWarmState{}, &w);  // Just the zero prior count.
  const std::vector<uint8_t> crafted = WithCraftedCount(w.span(), 0);
  AhpdWarmState state;
  ByteReader r({crafted.data(), crafted.size()});
  EXPECT_FALSE(LoadAhpdWarmState(&r, &state).ok());
}

TEST(SnapshotTest, CraftedAccumulatorStratumCountIsRejected) {
  // A fresh stratified accumulator's payload ends with its stratum count.
  EstimatorAccumulator original(EstimatorKind::kStratified);
  ByteWriter w;
  original.SaveState(&w);
  const std::vector<uint8_t> crafted =
      WithCraftedCount(w.span(), w.size() - 1);
  EstimatorAccumulator restored(EstimatorKind::kStratified);
  ByteReader r({crafted.data(), crafted.size()});
  EXPECT_FALSE(restored.LoadState(&r).ok());
}

TEST(SnapshotTest, CraftedSessionTraceCountIsRejected) {
  // Without record_trace the payload ends with a zero trace count, the
  // done flag and the MoE double.
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  ByteWriter w;
  session.SaveState(&w);
  const std::vector<uint8_t> crafted =
      WithCraftedCount(w.span(), w.size() - 1 - 1 - 8);
  EvaluationSession same(sampler, annotator, config, 42);
  ByteReader r({crafted.data(), crafted.size()});
  EXPECT_FALSE(same.LoadState(&r).ok());
}

/// Feeds `decode` seeded mutants of `valid`: every truncation, the byte at
/// every offset replaced by a varint count of 2^7 to 2^63, and `flips`
/// copies with one to four bits flipped. `decode` returns whether the
/// mutant decoded; the count of rejected mutants is returned.
template <typename Decode>
int DecodeMutants(std::span<const uint8_t> valid, uint64_t seed, int flips,
                  Decode decode) {
  Rng rng(seed);
  int rejected = 0;
  const auto run = [&](const std::vector<uint8_t>& mutant) {
    rejected += decode(std::span<const uint8_t>(mutant)) ? 0 : 1;
  };
  for (size_t len = 0; len < valid.size(); ++len) {
    run(std::vector<uint8_t>(valid.begin(), valid.begin() + len));
  }
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    ByteWriter count;
    count.PutVarint(uint64_t{1} << (7 + rng.UniformInt(57)));
    std::vector<uint8_t> mutant(valid.begin(), valid.begin() + pos);
    mutant.insert(mutant.end(), count.span().begin(), count.span().end());
    mutant.insert(mutant.end(), valid.begin() + pos + 1, valid.end());
    run(mutant);
  }
  for (int i = 0; i < flips; ++i) {
    std::vector<uint8_t> mutant(valid.begin(), valid.end());
    const int bits = 1 + static_cast<int>(rng.UniformInt(4));
    for (int b = 0; b < bits; ++b) {
      const uint64_t bit = rng.UniformInt(mutant.size() * 8);
      mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    run(mutant);
  }
  return rejected;
}

// Seeded, bounded mutation loop over two decoders of untrusted bytes: the
// AuditReport frame a client reads off the wire and the session snapshot a
// resume reads back from the WAL. Every mutant must come back as a Status,
// never an abort; the sanitizer builds turn any overflow or UB into a
// failure too.
TEST(DecoderMutationTest, ReportsAndSessionSnapshotsAlwaysReturnAStatus) {
  AuditReportMsg report;
  report.audit_id = 77;
  report.design_name = "TWCS";
  report.dataset_name = "demo";
  report.result.mu = 0.87;
  report.result.interval = {0.83, 0.91};
  report.result.annotated_triples = 180;
  report.result.iterations = 4;
  report.result.degradation_note = "store read-only";
  for (uint64_t n = 30; n <= 120; n += 30) {
    report.result.trace.push_back(TracePoint{n, 0.3 / double(n), 0.87});
  }
  report.store_hits = 12;
  ByteWriter encoded;
  EncodeAuditReport(report, &encoded);
  const std::vector<uint8_t>& wire = encoded.bytes();
  ASSERT_TRUE(DecodeAuditReport(wire).ok());
  const int bad_reports = DecodeMutants(
      wire, 1, 3000, [](std::span<const uint8_t> bytes) {
        return DecodeAuditReport(bytes).ok();
      });
  EXPECT_GT(bad_reports, 0);

  // Two sessions that together reach every counted field of the snapshot:
  // SRS without replacement (sampler flat set) with the trace on, and the
  // stratified design (accumulator strata, sampler carry).
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{.batch_size = 10, .without_replacement = true});
  StratifiedSampler ssrs(kg, StratifiedConfig{.batch_size = 10});
  EvaluationConfig config;
  config.record_trace = true;
  for (Sampler* sampler : {static_cast<Sampler*>(&srs),
                           static_cast<Sampler*>(&ssrs)}) {
    SCOPED_TRACE(sampler->name());
    EvaluationSession session(*sampler, annotator, config, 42);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(session.Step().ok());
    ByteWriter w;
    session.SaveState(&w);
    const auto load = [&](std::span<const uint8_t> bytes) {
      EvaluationSession target(*sampler, annotator, config, 42);
      ByteReader r(bytes);
      return target.LoadState(&r).ok();
    };
    ASSERT_TRUE(load(w.span()));
    EXPECT_GT(DecodeMutants(w.span(), 2, 3000, load), 0);
  }
}

// The same loop over the finished form of those two sessions run to their
// stop, with the trace on, the accumulator strata and the distinct-set
// sizes in the payload.
TEST(DecoderMutationTest, FinishedSessionSnapshotsAlwaysReturnAStatus) {
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{.batch_size = 10, .without_replacement = true});
  StratifiedSampler ssrs(kg, StratifiedConfig{.batch_size = 10});
  EvaluationConfig config;
  config.record_trace = true;
  for (Sampler* sampler : {static_cast<Sampler*>(&srs),
                           static_cast<Sampler*>(&ssrs)}) {
    SCOPED_TRACE(sampler->name());
    EvaluationSession session(*sampler, annotator, config, 42);
    ASSERT_TRUE(session.Run().ok());
    ByteWriter w;
    session.SaveFinishedState(&w);
    const auto load = [&](std::span<const uint8_t> bytes) {
      EvaluationSession target(*sampler, annotator, config, 42);
      ByteReader r(bytes);
      if (!target.LoadState(&r).ok()) return false;
      // Whatever decoded is a done session that reports without drawing.
      EXPECT_TRUE(target.done());
      EXPECT_TRUE(target.Step().ok());
      target.Finish().status().IgnoreError();
      return true;
    };
    ASSERT_TRUE(load(w.span()));
    EXPECT_GT(DecodeMutants(w.span(), 3, 3000, load), 0);
  }
}

}  // namespace
}  // namespace kgacc
