#include "kgacc/intervals/credible.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

BetaDistribution MakeBeta(double a, double b) {
  return *BetaDistribution::Create(a, b);
}

TEST(EqualTailedTest, QuantileDefinition) {
  const auto d = MakeBeta(9.0, 3.0);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_NEAR(d.Cdf(et.lower), 0.025, 1e-10);
  EXPECT_NEAR(d.Cdf(et.upper), 0.975, 1e-10);
}

TEST(EqualTailedTest, CoversExactlyOneMinusAlpha) {
  for (const double alpha : {0.01, 0.05, 0.10, 0.25}) {
    const auto d = MakeBeta(25.0, 8.0);
    const auto et = *EqualTailedInterval(d, alpha);
    EXPECT_NEAR(d.Cdf(et.upper) - d.Cdf(et.lower), 1.0 - alpha, 1e-10)
        << alpha;
  }
}

TEST(EqualTailedTest, RejectsBadAlpha) {
  const auto d = MakeBeta(2.0, 2.0);
  EXPECT_FALSE(EqualTailedInterval(d, 0.0).ok());
  EXPECT_FALSE(EqualTailedInterval(d, 1.0).ok());
}

TEST(HpdTest, SatisfiesCoverageConstraint) {
  const auto d = MakeBeta(28.0, 4.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_NEAR(d.Cdf(hpd.interval.upper) - d.Cdf(hpd.interval.lower), 0.95,
              1e-7);
}

TEST(HpdTest, EqualDensityAtInteriorEndpoints) {
  // Theorem 1's first-order condition: f(l) = f(u).
  const auto d = MakeBeta(10.0, 4.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kUnimodal);
  EXPECT_NEAR(d.Pdf(hpd.interval.lower), d.Pdf(hpd.interval.upper), 1e-4);
}

TEST(HpdTest, ContainsTheMode) {
  const auto d = MakeBeta(7.0, 3.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_TRUE(hpd.interval.Contains(d.Mode()));
}

TEST(HpdTest, NeverWiderThanEqualTailed) {
  // Theorem 1: HPD is the smallest 1-alpha interval.
  for (const double a : {1.5, 3.0, 9.0, 30.0}) {
    for (const double b : {1.5, 4.0, 12.0}) {
      const auto d = MakeBeta(a, b);
      const auto hpd = *HpdInterval(d, 0.05);
      const auto et = *EqualTailedInterval(d, 0.05);
      EXPECT_LE(hpd.interval.Width(), et.Width() + 1e-8)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(HpdTest, SymmetricPosteriorMatchesEqualTailed) {
  // Theorem 3: for a symmetric unimodal posterior, HPD == ET.
  for (const double a : {2.0, 5.0, 40.0}) {
    const auto d = MakeBeta(a, a);
    const auto hpd = *HpdInterval(d, 0.05);
    const auto et = *EqualTailedInterval(d, 0.05);
    EXPECT_NEAR(hpd.interval.lower, et.lower, 1e-6) << a;
    EXPECT_NEAR(hpd.interval.upper, et.upper, 1e-6) << a;
  }
}

TEST(HpdTest, SkewedPosteriorShiftsTowardMode) {
  // For a right-skewed-mass posterior (a >> b) the HPD sits closer to 1
  // than the ET interval on both ends.
  const auto d = MakeBeta(28.0, 2.0);
  const auto hpd = *HpdInterval(d, 0.05);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_GT(hpd.interval.lower, et.lower);
  EXPECT_GT(hpd.interval.upper, et.upper);
  EXPECT_LT(hpd.interval.Width(), et.Width());
}

TEST(HpdTest, DecreasingLimitingCase) {
  // tau = 0 under an uninformative prior: Beta(a<=1, b+n) decreasing;
  // Eq. 11 gives [0, qBeta(1-alpha)].
  const auto d = MakeBeta(0.5, 30.5);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kDecreasing);
  EXPECT_DOUBLE_EQ(hpd.interval.lower, 0.0);
  EXPECT_NEAR(hpd.interval.upper, *d.Quantile(0.95), 1e-12);
  EXPECT_EQ(hpd.solver_iterations, 0);
}

TEST(HpdTest, IncreasingLimitingCase) {
  // tau = n: Beta(a+n, b<=1) increasing; Eq. 10 gives [qBeta(alpha), 1].
  const auto d = MakeBeta(30.5, 0.5);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kIncreasing);
  EXPECT_DOUBLE_EQ(hpd.interval.upper, 1.0);
  EXPECT_NEAR(hpd.interval.lower, *d.Quantile(0.05), 1e-12);
}

TEST(HpdTest, LimitingCaseIsShorterThanEqualTailed) {
  // Corollary 1: the one-sided interval beats the two-sided ET under the
  // monotone posterior.
  const auto d = MakeBeta(31.0 / 3.0 + 20.0, 1.0 / 3.0);
  const auto hpd = *HpdInterval(d, 0.05);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_LT(hpd.interval.Width(), et.Width());
}

TEST(HpdTest, UShapedFallsBackToEqualTailed) {
  const auto d = MakeBeta(0.5, 0.5);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kUShaped);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_DOUBLE_EQ(hpd.interval.lower, et.lower);
  EXPECT_DOUBLE_EQ(hpd.interval.upper, et.upper);
}

TEST(HpdTest, SolversAgree) {
  // The SQP and the independent 1-D reduction must find the same interval.
  for (const double a : {2.0, 6.5, 28.0, 170.0}) {
    for (const double b : {1.7, 5.0, 30.0}) {
      const auto d = MakeBeta(a, b);
      HpdOptions sqp_opts;
      sqp_opts.solver = HpdSolver::kSlsqp;
      HpdOptions oned_opts;
      oned_opts.solver = HpdSolver::kOneDim;
      const auto sqp = *HpdInterval(d, 0.05, sqp_opts);
      const auto oned = *HpdInterval(d, 0.05, oned_opts);
      EXPECT_NEAR(sqp.interval.lower, oned.interval.lower, 5e-6)
          << "a=" << a << " b=" << b;
      EXPECT_NEAR(sqp.interval.upper, oned.interval.upper, 5e-6)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(HpdTest, ColdStartReachesSameSolution) {
  const auto d = MakeBeta(12.0, 5.0);
  HpdOptions warm;
  HpdOptions cold;
  cold.warm_start_at_et = false;
  const auto w = *HpdInterval(d, 0.05, warm);
  const auto c = *HpdInterval(d, 0.05, cold);
  EXPECT_NEAR(w.interval.lower, c.interval.lower, 1e-5);
  EXPECT_NEAR(w.interval.upper, c.interval.upper, 1e-5);
}

TEST(HpdTest, RejectsBadAlpha) {
  const auto d = MakeBeta(3.0, 3.0);
  EXPECT_FALSE(HpdInterval(d, -0.1).ok());
  EXPECT_FALSE(HpdInterval(d, 1.0).ok());
}

/// Parameterized sweep of the minimality property: no interval of the same
/// coverage may be shorter. We verify against a fine grid of alternative
/// intervals built from the CDF.
class HpdMinimality
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(HpdMinimality, NoEqualCoverageIntervalIsShorter) {
  const auto [a, b, alpha] = GetParam();
  const auto d = MakeBeta(a, b);
  const auto hpd = *HpdInterval(d, alpha);
  // Slide the lower CDF mass point across [0, alpha] and compare widths.
  for (int i = 0; i <= 40; ++i) {
    const double p_lo = alpha * i / 40.0;
    const double l = *d.Quantile(p_lo);
    const double u = *d.Quantile(std::min(p_lo + 1.0 - alpha, 1.0));
    EXPECT_GE(u - l, hpd.interval.Width() - 1e-6)
        << "a=" << a << " b=" << b << " alpha=" << alpha << " p_lo=" << p_lo;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Posteriors, HpdMinimality,
    ::testing::Values(std::make_tuple(5.0, 2.0, 0.05),
                      std::make_tuple(2.0, 5.0, 0.05),
                      std::make_tuple(28.0, 4.0, 0.05),
                      std::make_tuple(28.0, 4.0, 0.01),
                      std::make_tuple(28.0, 4.0, 0.10),
                      std::make_tuple(170.0, 31.0, 0.05),
                      std::make_tuple(1.5, 1.5, 0.05),
                      std::make_tuple(0.5, 12.0, 0.05),   // limiting case
                      std::make_tuple(12.0, 0.5, 0.05),   // limiting case
                      std::make_tuple(350.0, 300.0, 0.01)));

TEST(HpdNewtonTest, NewtonIsThePrimaryUnimodalPath) {
  const auto d = MakeBeta(28.0, 4.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.path, HpdPath::kNewton);
  EXPECT_GT(hpd.solver_iterations, 0);
  EXPECT_GT(hpd.cdf_evals, 0);
  EXPECT_GT(hpd.pdf_evals, 0);
  // Convergence certificate: the reported residuals meet the solver's
  // advertised tolerances and independently verify on the endpoints.
  EXPECT_LE(std::fabs(hpd.kkt_coverage_residual), 1e-12);
  EXPECT_LE(std::fabs(hpd.kkt_density_residual), 1e-9);
  EXPECT_NEAR(d.Cdf(hpd.interval.upper) - d.Cdf(hpd.interval.lower), 0.95,
              1e-11);
  EXPECT_NEAR(d.LogPdf(hpd.interval.lower), d.LogPdf(hpd.interval.upper),
              1e-8);
}

TEST(HpdNewtonTest, UsesFewerBetaEvaluationsThanSqp) {
  // The specialization's point: ~4-6 Newton iterations of 2 CDF + 2 PDF
  // evaluations versus the SQP's ~20-70 constraint/gradient evaluations.
  // Every single solve must be cheaper, and in aggregate (the hot-path
  // mix of shapes and levels) Newton must cost under half the SQP.
  int newton_total = 0;
  int sqp_total = 0;
  for (const double a : {6.5, 28.0, 170.0, 900.0, 3000.0}) {
    for (const double alpha : {0.01, 0.05, 0.1}) {
      const auto d = MakeBeta(a, 0.2 * a + 1.0);
      const auto newton = *HpdInterval(d, alpha);
      HpdOptions sqp_opts;
      sqp_opts.solver = HpdSolver::kSlsqp;
      const auto sqp = *HpdInterval(d, alpha, sqp_opts);
      ASSERT_EQ(newton.path, HpdPath::kNewton) << a;
      ASSERT_EQ(sqp.path, HpdPath::kSlsqp) << a;
      const int newton_evals = newton.cdf_evals + newton.pdf_evals;
      const int sqp_evals = sqp.cdf_evals + sqp.pdf_evals;
      EXPECT_LT(newton_evals, sqp_evals) << "a=" << a << " alpha=" << alpha;
      newton_total += newton_evals;
      sqp_total += sqp_evals;
    }
  }
  EXPECT_LT(2 * newton_total, sqp_total);
}

/// Cross-check grid of the Newton path against both references across
/// near-degenerate (a or b near 1), central, skewed, and extreme-peaked
/// posteriors, including the limiting shapes (a or b <= 1) where all
/// paths must agree on the closed forms. The shapes just above 1 are the
/// near-edge region, down to 1.0005, where the lower endpoint of an a-side
/// edge underflows below the smallest normal double.
TEST(HpdNewtonTest, GridCrossCheckAgainstSqpAndOneDim) {
  const double shapes[] = {0.5,   1.0005, 1.00733, 1.02275, 1.0496,
                           1.09933, 1.5,  2.0,     5.0,     20.0,
                           80.0,  300.0,  1200.0,  5000.0};
  const auto near_edge = [](double s) { return s > 1.0 && s < 1.1; };
  for (const double a : shapes) {
    for (const double b : shapes) {
      // Both parameters barely above 1 is a nearly flat density, where the
      // SQP reference's 1e-6 stationarity test leaves ~1e-9 of endpoint
      // slack; NearlyFlatPosteriorsMatchAHighPrecisionReference covers it.
      if (near_edge(a) && near_edge(b)) continue;
      for (const double alpha : {0.01, 0.05, 0.1}) {
        const auto d = MakeBeta(a, b);
        const auto hpd = HpdInterval(d, alpha);
        ASSERT_TRUE(hpd.ok()) << "a=" << a << " b=" << b << " alpha=" << alpha;
        HpdOptions sqp_opts;
        sqp_opts.solver = HpdSolver::kSlsqp;
        const auto sqp = HpdInterval(d, alpha, sqp_opts);
        ASSERT_TRUE(sqp.ok()) << "a=" << a << " b=" << b;
        // Newton endpoints within 1e-9 of the SQP reference.
        EXPECT_NEAR(hpd->interval.lower, sqp->interval.lower, 1e-9)
            << "a=" << a << " b=" << b << " alpha=" << alpha;
        EXPECT_NEAR(hpd->interval.upper, sqp->interval.upper, 1e-9)
            << "a=" << a << " b=" << b << " alpha=" << alpha;
        if (d.Shape() != BetaShape::kUnimodal) continue;
        EXPECT_EQ(hpd->path, HpdPath::kNewton)
            << "a=" << a << " b=" << b << " alpha=" << alpha;
        // Coverage certificate.
        EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower),
                    1.0 - alpha, 1e-10)
            << "a=" << a << " b=" << b;
        // Agreement with the independent 1-D reduction (whose Brent
        // minimizer is the loosest of the three).
        HpdOptions oned_opts;
        oned_opts.solver = HpdSolver::kOneDim;
        const auto oned = HpdInterval(d, alpha, oned_opts);
        ASSERT_TRUE(oned.ok()) << "a=" << a << " b=" << b;
        EXPECT_NEAR(hpd->interval.lower, oned->interval.lower, 5e-6)
            << "a=" << a << " b=" << b << " alpha=" << alpha;
        EXPECT_NEAR(hpd->interval.upper, oned->interval.upper, 5e-6)
            << "a=" << a << " b=" << b << " alpha=" << alpha;
      }
    }
  }
}

TEST(HpdNewtonTest, FormerFallbackPosteriorsStayOnTheNewtonPath) {
  // Near-edge posteriors on which the former 2x2 Newton left its basin and
  // paid an SQP or 1-D fallback of 96-205 beta evaluations each. The
  // bracketed root solves them directly and cheaply.
  struct Case {
    double a, b, alpha;
  };
  for (const Case c : {Case{2.39933, 1.00733, 0.05},
                       Case{1.09933, 2.30733, 0.05},
                       Case{3.33333, 1.08713, 0.05},
                       Case{1.0496, 3.37087, 0.05},
                       Case{1.02275, 7.02275, 0.05},
                       Case{1.02275, 7.02275, 0.01}}) {
    const auto d = MakeBeta(c.a, c.b);
    const auto hpd = HpdInterval(d, c.alpha);
    ASSERT_TRUE(hpd.ok()) << "a=" << c.a << " b=" << c.b;
    EXPECT_EQ(hpd->path, HpdPath::kNewton) << "a=" << c.a << " b=" << c.b;
    EXPECT_LE(hpd->cdf_evals + hpd->pdf_evals + hpd->quantile_evals, 40)
        << "a=" << c.a << " b=" << c.b << " alpha=" << c.alpha;
    EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower),
                1.0 - c.alpha, 1e-10)
        << "a=" << c.a << " b=" << c.b;
    HpdOptions sqp_opts;
    sqp_opts.solver = HpdSolver::kSlsqp;
    const auto sqp = HpdInterval(d, c.alpha, sqp_opts);
    ASSERT_TRUE(sqp.ok()) << "a=" << c.a << " b=" << c.b;
    EXPECT_NEAR(hpd->interval.lower, sqp->interval.lower, 1e-9)
        << "a=" << c.a << " b=" << c.b << " alpha=" << c.alpha;
    EXPECT_NEAR(hpd->interval.upper, sqp->interval.upper, 1e-9)
        << "a=" << c.a << " b=" << c.b << " alpha=" << c.alpha;
  }
}

TEST(HpdNewtonTest, EndpointsBeyondDoublePrecisionStillConverge) {
  // Posteriors whose HPD endpoint lies closer to 0 or 1 than doubles can
  // resolve, each with the start an audit handed it: a barely above 1 puts
  // the lower endpoint below the smallest normal double; b barely above 1
  // pins the partner against 1, or puts the mode itself within rounding of
  // 1; both barely above 1 is a nearly flat density.
  struct Case {
    double a, b, alpha;
    Interval start;
  };
  for (const Case c :
       {Case{1.0005, 30.0, 0.05, {0.0, 0.0}},
        Case{1.6666666666666667, 1.0000000000000002, 0.05,
             {0.1093362073943278, 0.98492411164770388}},
        Case{96420.30900441749, 1.0000000000145519, 0.0038885894388016378,
             {0.0, 0.0}},
        Case{1.0000000000000926, 1.0000000000004547, 0.3417053013874608,
             {0.0, 0.0}}}) {
    const auto d = MakeBeta(c.a, c.b);
    HpdOptions options;
    if (c.start.Width() > 0.0) options.warm_start = &c.start;
    const auto hpd = HpdInterval(d, c.alpha, options);
    ASSERT_TRUE(hpd.ok()) << "a=" << c.a << " b=" << c.b;
    EXPECT_EQ(hpd->path, HpdPath::kNewton);
    EXPECT_LE(hpd->cdf_evals + hpd->pdf_evals + hpd->quantile_evals, 40)
        << "a=" << c.a << " b=" << c.b;
    EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower),
                1.0 - c.alpha, 1e-10)
        << "a=" << c.a << " b=" << c.b;
  }
}

TEST(HpdNewtonTest, NearlyFlatPosteriorsMatchAHighPrecisionReference) {
  // Reference endpoints from a 40-digit solve of {F(u) - F(l) = 1 - alpha,
  // f(l) = f(u)} (mpmath).
  struct Case {
    double a, b, alpha, lower, upper;
  };
  for (const Case c :
       {Case{1.0496, 1.02275, 0.05, 0.054734943093328162, 0.99831620607426250},
        Case{1.0496, 1.02275, 0.1, 0.10294484739080249, 0.99360030516596605},
        Case{1.02275, 1.0496, 0.01, 6.5253967961432742e-05,
             0.98790280883666455}}) {
    const auto hpd = *HpdInterval(MakeBeta(c.a, c.b), c.alpha);
    EXPECT_EQ(hpd.path, HpdPath::kNewton);
    EXPECT_NEAR(hpd.interval.lower, c.lower, 1e-12) << c.alpha;
    EXPECT_NEAR(hpd.interval.upper, c.upper, 1e-12) << c.alpha;
  }
}

TEST(HpdNewtonTest, DisabledNewtonIsThePureSqpPath) {
  const auto d = MakeBeta(12.0, 5.0);
  HpdOptions opts;
  opts.solver = HpdSolver::kSlsqp;
  const auto hpd = *HpdInterval(d, 0.05, opts);
  EXPECT_EQ(hpd.path, HpdPath::kSlsqp);
}

TEST(HpdNewtonTest, ThreadStatsAttributeSolvesToPaths) {
  ResetThreadHpdStats();
  const auto d = MakeBeta(28.0, 4.0);
  ASSERT_TRUE(HpdInterval(d, 0.05).ok());
  HpdOptions sqp_opts;
  sqp_opts.solver = HpdSolver::kSlsqp;
  ASSERT_TRUE(HpdInterval(d, 0.05, sqp_opts).ok());
  ASSERT_TRUE(HpdInterval(MakeBeta(0.5, 30.5), 0.05).ok());  // Limiting.
  const HpdSolveStats stats = ThreadHpdStatsSnapshot();
  EXPECT_EQ(stats.newton.solves, 1u);
  EXPECT_EQ(stats.slsqp.solves, 1u);
  EXPECT_EQ(stats.limiting.solves, 1u);
  EXPECT_EQ(stats.total_solves(), 3u);
  EXPECT_GT(stats.newton.cdf_evals, 0u);
  EXPECT_LT(stats.newton.cdf_evals + stats.newton.pdf_evals,
            stats.slsqp.cdf_evals + stats.slsqp.pdf_evals);
  ResetThreadHpdStats();
  EXPECT_EQ(ThreadHpdStatsSnapshot().total_solves(), 0u);
}

TEST(HpdOneDimTest, TinyAlphaKeepsABoundedBracket) {
  // Regression for the denormal bracket floor: a near-degenerate lower
  // quantile must not collapse Brent's interval arithmetic.
  const auto d = MakeBeta(1.2, 2000.0);
  HpdOptions oned;
  oned.solver = HpdSolver::kOneDim;
  const auto hpd = HpdInterval(d, 1e-6, oned);
  ASSERT_TRUE(hpd.ok());
  EXPECT_GT(hpd->interval.Width(), 0.0);
  EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower),
              1.0 - 1e-6, 1e-7);
  const auto newton = HpdInterval(d, 1e-6);
  ASSERT_TRUE(newton.ok());
  EXPECT_NEAR(hpd->interval.upper, newton->interval.upper, 5e-5);
}

TEST(HpdOneDimTest, WidePosteriorNeverSelectsThePoisonWidth) {
  // Near-flat posterior at small alpha: feasible widths approach 1, the
  // regime where the old `return 1.0` failure poison was indistinguishable
  // from a genuine candidate. The solve must return a real interval whose
  // width beats 1 and satisfies coverage.
  const auto d = MakeBeta(1.05, 1.1);
  HpdOptions oned;
  oned.solver = HpdSolver::kOneDim;
  const auto hpd = HpdInterval(d, 0.005, oned);
  ASSERT_TRUE(hpd.ok());
  EXPECT_LT(hpd->interval.Width(), 1.0);
  EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower), 0.995,
              1e-6);
}

}  // namespace
}  // namespace kgacc
