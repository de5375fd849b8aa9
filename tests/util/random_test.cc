#include "kgacc/util/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "kgacc/util/flat_set.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(Mix64Test, IsDeterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

TEST(Mix64Test, AvalanchesLowBits) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int trials = 64;
  for (int bit = 0; bit < trials; ++bit) {
    const uint64_t a = Mix64(0x1234567890abcdefULL);
    const uint64_t b = Mix64(0x1234567890abcdefULL ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / trials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(ToUnitDoubleTest, StaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = ToUnitDouble(rng.Next());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng rng(5);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Reseed(5);
  EXPECT_EQ(rng.Next(), first);
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(17);
  const uint64_t k = 10;
  std::vector<int> counts(k, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(k)];
  for (uint64_t i = 0; i < k; ++i) {
    EXPECT_NEAR(counts[i], n / static_cast<double>(k), 500.0);
  }
}

TEST(RngTest, UniformIntOfOneIsZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, NormalHasUnitMoments) {
  Rng rng(23);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(31);
  for (const double shape : {0.5, 1.0, 2.5, 10.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.08 * shape + 0.02) << "shape=" << shape;
  }
}

TEST(RngTest, BetaMeanMatchesParameters) {
  Rng rng(37);
  const double a = 2.0, b = 5.0;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Beta(a, b);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, a / (a + b), 0.01);
}

TEST(SampleWithoutReplacementTest, ProducesDistinctIndices) {
  Rng rng(41);
  std::vector<uint64_t> sample;
  FlatSet64 scratch;
  SampleWithoutReplacementAppend(100, 30, &rng, &sample, &scratch);
  ASSERT_EQ(sample.size(), 30u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t x : sample) EXPECT_LT(x, 100u);
}

TEST(SampleWithoutReplacementTest, AppendsBehindExistingElements) {
  // The draw lands at the tail and leaves what is already there alone, and
  // the same seed draws the same indices whatever precedes them.
  Rng rng_empty(43), rng_tail(43);
  std::vector<uint64_t> fresh;
  std::vector<uint64_t> tail = {777, 888};
  FlatSet64 scratch;
  SampleWithoutReplacementAppend(40, 5, &rng_empty, &fresh, &scratch);
  SampleWithoutReplacementAppend(40, 5, &rng_tail, &tail, &scratch);
  ASSERT_EQ(tail.size(), 2 + fresh.size());
  EXPECT_EQ(tail[0], 777u);
  EXPECT_EQ(tail[1], 888u);
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), tail.begin() + 2));
  EXPECT_EQ(rng_empty.Next(), rng_tail.Next());
}

TEST(SampleWithoutReplacementTest, FullDrawIsPermutation) {
  Rng rng(43);
  std::vector<uint64_t> sample;
  FlatSet64 scratch;
  SampleWithoutReplacementAppend(10, 10, &rng, &sample, &scratch);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SampleWithoutReplacementTest, ZeroDrawAppendsNothing) {
  Rng rng(47);
  std::vector<uint64_t> sample = {3};
  FlatSet64 scratch;
  SampleWithoutReplacementAppend(5, 0, &rng, &sample, &scratch);
  EXPECT_EQ(sample, std::vector<uint64_t>{3});
}

TEST(SampleWithoutReplacementTest, EveryElementEquallyLikely) {
  // One output buffer and one scratch set reused across every draw, as
  // the TWCS sampler reuses them across units.
  Rng rng(53);
  const uint64_t n = 20, k = 5;
  std::vector<int> counts(n, 0);
  std::vector<uint64_t> sample;
  FlatSet64 scratch;
  const int reps = 40000;
  for (int r = 0; r < reps; ++r) {
    sample.clear();
    SampleWithoutReplacementAppend(n, k, &rng, &sample, &scratch);
    for (uint64_t x : sample) ++counts[x];
  }
  const double expected = reps * static_cast<double>(k) / n;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], expected, 0.06 * expected) << "index " << i;
  }
}

TEST(AliasTableTest, MatchesWeightsEmpirically) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  ASSERT_EQ(table.size(), 4u);
  Rng rng(61);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(&rng)];
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = n * weights[i] / 10.0;
    EXPECT_NEAR(counts[i], expected, 0.03 * expected + 100) << "bucket " << i;
  }
}

TEST(AliasTableTest, NormalizedProbabilities) {
  AliasTable table({2.0, 6.0});
  EXPECT_DOUBLE_EQ(table.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(table.probability(1), 0.75);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0});
  Rng rng(67);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(table.Sample(&rng), 1u);
}

TEST(AliasTableTest, SingleOutcome) {
  AliasTable table({5.0});
  Rng rng(71);
  EXPECT_EQ(table.Sample(&rng), 0u);
}

TEST(AliasTableTest, ManyUniformWeightsStayUniform) {
  std::vector<double> weights(1000, 1.0);
  AliasTable table(weights);
  Rng rng(73);
  std::vector<int> counts(1000, 0);
  const int n = 1000000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(&rng)];
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*mn, 700);
  EXPECT_LT(*mx, 1350);
}

}  // namespace
}  // namespace kgacc
