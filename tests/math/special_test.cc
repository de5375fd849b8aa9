#include "kgacc/math/special.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <tuple>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(LogBetaTest, MatchesClosedFormsForIntegers) {
  // B(1,1) = 1, B(2,3) = 1/12, B(5,5) = 1/630.
  EXPECT_NEAR(LogBeta(1, 1), 0.0, 1e-14);
  EXPECT_NEAR(LogBeta(2, 3), std::log(1.0 / 12.0), 1e-12);
  EXPECT_NEAR(LogBeta(5, 5), std::log(1.0 / 630.0), 1e-12);
}

TEST(LogBetaTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(LogBeta(2.5, 7.1), LogBeta(7.1, 2.5));
}

TEST(LogBetaTest, HalfHalfIsPi) {
  // B(1/2, 1/2) = pi.
  EXPECT_NEAR(LogBeta(0.5, 0.5), std::log(M_PI), 1e-12);
}

TEST(IncompleteBetaTest, EndpointValues) {
  EXPECT_DOUBLE_EQ(*RegularizedIncompleteBeta(0.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(*RegularizedIncompleteBeta(1.0, 2.0, 3.0), 1.0);
}

TEST(IncompleteBetaTest, UniformCaseIsIdentity) {
  for (double x = 0.05; x < 1.0; x += 0.05) {
    EXPECT_NEAR(*RegularizedIncompleteBeta(x, 1.0, 1.0), x, 1e-13);
  }
}

TEST(IncompleteBetaTest, PowerLawWhenBIsOne) {
  // I_x(a, 1) = x^a.
  for (const double a : {0.3, 1.0, 2.0, 7.5}) {
    for (double x = 0.1; x < 1.0; x += 0.2) {
      EXPECT_NEAR(*RegularizedIncompleteBeta(x, a, 1.0), std::pow(x, a), 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(IncompleteBetaTest, ComplementPowerLawWhenAIsOne) {
  // I_x(1, b) = 1 - (1-x)^b.
  for (const double b : {0.3, 1.0, 2.0, 7.5}) {
    for (double x = 0.1; x < 1.0; x += 0.2) {
      EXPECT_NEAR(*RegularizedIncompleteBeta(x, 1.0, b),
                  1.0 - std::pow(1.0 - x, b), 1e-12)
          << "b=" << b << " x=" << x;
    }
  }
}

TEST(IncompleteBetaTest, SymmetricAtHalf) {
  // I_{1/2}(a, a) = 1/2 for any a.
  for (const double a : {0.2, 0.5, 1.0, 3.0, 30.0, 300.0}) {
    EXPECT_NEAR(*RegularizedIncompleteBeta(0.5, a, a), 0.5, 1e-12) << a;
  }
}

TEST(IncompleteBetaTest, ReflectionIdentity) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (const double a : {0.4, 1.7, 12.0}) {
    for (const double b : {0.9, 3.3, 25.0}) {
      for (double x = 0.05; x < 1.0; x += 0.1) {
        const double lhs = *RegularizedIncompleteBeta(x, a, b);
        const double rhs = 1.0 - *RegularizedIncompleteBeta(1.0 - x, b, a);
        EXPECT_NEAR(lhs, rhs, 1e-12) << a << " " << b << " " << x;
      }
    }
  }
}

TEST(IncompleteBetaTest, RecurrenceIdentity) {
  // I_x(a, b) = x I_x(a-1, b) + (1-x) I_x(a, b-1)  [DLMF 8.17.20/21 combo]
  // holds in the equivalent form I_x(a,b) = I_x(a+1,b) + x^a (1-x)^b /
  // (a B(a,b)).
  for (const double a : {1.5, 4.0}) {
    for (const double b : {2.5, 6.0}) {
      for (double x = 0.1; x < 1.0; x += 0.2) {
        const double lhs = *RegularizedIncompleteBeta(x, a, b);
        const double rhs =
            *RegularizedIncompleteBeta(x, a + 1.0, b) +
            std::exp(a * std::log(x) + b * std::log1p(-x) - std::log(a) -
                     LogBeta(a, b));
        EXPECT_NEAR(lhs, rhs, 1e-12) << a << " " << b << " " << x;
      }
    }
  }
}

TEST(IncompleteBetaTest, MatchesBinomialTailSum) {
  // I_p(k, n-k+1) = P(Bin(n, p) >= k), computed by direct summation.
  const int n = 12;
  const double p = 0.37;
  for (int k = 1; k <= n; ++k) {
    double tail = 0.0;
    for (int j = k; j <= n; ++j) {
      double choose = 1.0;
      for (int i = 0; i < j; ++i) {
        choose *= static_cast<double>(n - i) / static_cast<double>(i + 1);
      }
      tail += choose * std::pow(p, j) * std::pow(1.0 - p, n - j);
    }
    const double ib =
        *RegularizedIncompleteBeta(p, k, static_cast<double>(n - k + 1));
    EXPECT_NEAR(ib, tail, 1e-10) << "k=" << k;
  }
}

TEST(IncompleteBetaTest, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.01; x < 1.0; x += 0.01) {
    const double v = *RegularizedIncompleteBeta(x, 3.3, 0.7);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(IncompleteBetaTest, ExtremeParametersStayInRange) {
  for (const double a : {1e-3, 1.0, 500.0}) {
    for (const double b : {1e-3, 1.0, 500.0}) {
      for (const double x : {1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9}) {
        const auto r = RegularizedIncompleteBeta(x, a, b);
        ASSERT_TRUE(r.ok());
        EXPECT_GE(*r, 0.0);
        EXPECT_LE(*r, 1.0);
      }
    }
  }
}

TEST(IncompleteBetaTest, RejectsInvalidArguments) {
  EXPECT_FALSE(RegularizedIncompleteBeta(0.5, 0.0, 1.0).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(0.5, 1.0, -1.0).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(-0.1, 1.0, 1.0).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(1.1, 1.0, 1.0).ok());
}

TEST(IncompleteBetaTest, PairIsBitIdenticalToTwoCalls) {
  // The paired kernel promises the single-argument arithmetic in each
  // lane, so any difference at all is a bug.
  std::mt19937_64 rng(20260515);
  std::uniform_real_distribution<double> log_shape(std::log(0.3),
                                                   std::log(3000.0));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> kind(0, 9);
  const auto draw_x = [&](double a, double b) {
    // Both sides of the mirror split, close to it, and the endpoints.
    const double split = (a + 1.0) / (a + b + 2.0);
    switch (kind(rng)) {
      case 0:
        return 0.0;
      case 1:
        return 1.0;
      case 2:
        return split * unit(rng);
      case 3:
        return split + (1.0 - split) * unit(rng);
      case 4:
        return std::nextafter(split, 0.0);
      case 5:
        return split;
      default:
        return unit(rng);
    }
  };
  int64_t differences = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double a = std::exp(log_shape(rng));
    const double b = std::exp(log_shape(rng));
    const double log_beta = LogBeta(a, b);
    const double x1 = draw_x(a, b);
    const double x2 = draw_x(a, b);
    double pair[2] = {-1.0, -1.0};
    ASSERT_TRUE(RegularizedIncompleteBetaPair(x1, x2, a, b, log_beta,
                                              &pair[0], &pair[1])
                    .ok());
    const double single[2] = {*RegularizedIncompleteBeta(x1, a, b, log_beta),
                              *RegularizedIncompleteBeta(x2, a, b, log_beta)};
    if (std::memcmp(pair, single, sizeof(pair)) != 0) {
      ++differences;
      ADD_FAILURE() << "a=" << a << " b=" << b << " x1=" << x1
                    << " x2=" << x2;
      if (differences > 5) break;
    }
  }
  EXPECT_EQ(differences, 0);
}

TEST(IncompleteBetaTest, PairRejectsInvalidArguments) {
  double f1 = -1.0, f2 = -1.0;
  EXPECT_FALSE(RegularizedIncompleteBetaPair(0.5, 1.1, 2.0, 3.0,
                                             LogBeta(2.0, 3.0), &f1, &f2)
                   .ok());
  EXPECT_FALSE(RegularizedIncompleteBetaPair(-0.1, 0.5, 2.0, 3.0,
                                             LogBeta(2.0, 3.0), &f1, &f2)
                   .ok());
  EXPECT_EQ(f1, -1.0);
  EXPECT_EQ(f2, -1.0);
}

TEST(InverseIncompleteBetaTest, EndpointValues) {
  EXPECT_DOUBLE_EQ(*InverseRegularizedIncompleteBeta(0.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(*InverseRegularizedIncompleteBeta(1.0, 2.0, 3.0), 1.0);
}

TEST(InverseIncompleteBetaTest, UniformCaseIsIdentity) {
  for (double p = 0.05; p < 1.0; p += 0.05) {
    EXPECT_NEAR(*InverseRegularizedIncompleteBeta(p, 1.0, 1.0), p, 1e-12);
  }
}

TEST(InverseIncompleteBetaTest, MedianOfSymmetricIsHalf) {
  for (const double a : {0.3, 1.0, 5.0, 50.0}) {
    EXPECT_NEAR(*InverseRegularizedIncompleteBeta(0.5, a, a), 0.5, 1e-10) << a;
  }
}

TEST(InverseIncompleteBetaTest, RejectsInvalidArguments) {
  EXPECT_FALSE(InverseRegularizedIncompleteBeta(0.5, -1.0, 2.0).ok());
  EXPECT_FALSE(InverseRegularizedIncompleteBeta(-0.01, 1.0, 2.0).ok());
  EXPECT_FALSE(InverseRegularizedIncompleteBeta(1.01, 1.0, 2.0).ok());
}

TEST(InverseIncompleteBetaTest, ClopperPearsonShapesConvergeInFewEvaluations) {
  // Clopper-Pearson endpoints at 95% over a grid of sample sizes and
  // accuracies: the lower endpoint is the 0.025 quantile of
  // Beta(tau, n - tau + 1), the upper the 0.975 quantile of
  // Beta(tau + 1, n - tau) (1 when tau = n). A converged iteration must
  // stop rather than keep bisecting a stale bracket.
  int inversions = 0;
  int total_evals = 0;
  int max_evals = 0;
  const auto invert = [&](double p, double a, double b) {
    int evals = 0;
    const Result<double> x = internal::InverseRegularizedIncompleteBeta(
        p, a, b, LogBeta(a, b), &evals);
    ASSERT_TRUE(x.ok());
    ++inversions;
    total_evals += evals;
    max_evals = std::max(max_evals, evals);
    EXPECT_LE(evals, 10) << "p=" << p << " a=" << a << " b=" << b;
  };
  for (int n = 30; n <= 600; n += 7) {
    for (const double r : {0.6, 0.75, 0.85, 0.9, 0.95, 0.99}) {
      const int tau = static_cast<int>(std::lround(r * n));
      invert(0.025, tau, n - tau + 1);
      if (tau < n) invert(0.975, tau + 1, n - tau);
    }
  }
  const double mean_evals = static_cast<double>(total_evals) / inversions;
  EXPECT_LE(mean_evals, 5.0);
  EXPECT_LE(max_evals, 10);
}

TEST(InverseIncompleteBetaTest, MatchesHighPrecisionReference) {
  // Reference quantiles to 40 digits from mpmath 1.3.0 at 50-60 digit
  // working precision: the root x of betainc(a, b, 0, x, regularized=True)
  // = p, with p the exact value of the double used here.
  struct Case {
    double p, a, b;
    const char* reference;
    double max_relative_error;
  };
  // Clopper-Pearson endpoints of CP(tau, n): the incomplete-beta kernel
  // itself is accurate to a few dozen ulps here, and so is its inverse.
  constexpr double kCp = 1e-13;
  const Case cases[] = {
      {0.025, 170, 31, "0.7928412963314492856526986815562753567748", kCp},
      {0.975, 171, 30, "0.8964504764781373517844962226452515273651", kCp},
      {0.025, 45, 6, "0.7818646335657977344712837060691643315443", kCp},
      {0.975, 46, 5, "0.9667249064109775177846651894875748283261", kCp},
      {0.025, 540, 61, "0.8731569276351673991352036877265031509911", kCp},
      {0.975, 541, 60, "0.9228197888484697422459010431540957311762", kCp},
      {0.025, 212, 71, "0.6970879873803472883316917688209645600681", kCp},
      {0.975, 213, 70, "0.8010817462207709225032817486465061541371", kCp},
      {0.025, 144, 97, "0.5350156969769947351575025914757727891620", kCp},
      {0.975, 145, 96, "0.6624821596774742226001941216810443103599", kCp},
      {0.025, 1, 30, "0.0008435709266304788030607706445668245844701", kCp},
      {0.975, 2, 29, "0.1721694556334126493403451617785411659826", kCp},
      {0.025, 29, 2, "0.8278305443665873230808372905485437278369", kCp},
      {0.975, 30, 1, "0.9991564290733695204858581570736979079410", kCp},
      {0.025, 950, 51, "0.9346095120845063521742290798488596505977", kCp},
      {0.975, 951, 50, "0.9626646023953382299383173165584327195922", kCp},
      // Extreme tails, where the kernel's own error dominates (measured
      // 2.1e-13, about 960 ulps, and 3.8e-15): the bounds sit just above.
      {1e-12, 0.5, 300, "2.620176447823831818536643790253117094003e-27",
       3e-13},
      {1e-6, 1e4, 30, "0.9936744668569204259800691712557211832526", 1e-14},
  };
  for (const Case& c : cases) {
    const double reference = std::strtod(c.reference, nullptr);
    const Result<double> x = InverseRegularizedIncompleteBeta(c.p, c.a, c.b);
    ASSERT_TRUE(x.ok());
    const double relative_error = std::fabs(*x - reference) / reference;
    EXPECT_LE(relative_error, c.max_relative_error)
        << "p=" << c.p << " a=" << c.a << " b=" << c.b << " got "
        << *x << " ulps "
        << relative_error / std::numeric_limits<double>::epsilon();
  }
}

/// Property sweep: quantile/CDF round trips across a parameter grid,
/// including the sub-uniform shapes used by the Kerman/Jeffreys priors and
/// the razor-sharp posteriors arising late in evaluation runs.
class BetaRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BetaRoundTrip, QuantileInvertsCdf) {
  const auto [a, b] = GetParam();
  for (const double p :
       {1e-6, 0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999,
        1.0 - 1e-6}) {
    const auto x = InverseRegularizedIncompleteBeta(p, a, b);
    ASSERT_TRUE(x.ok());
    const auto back = RegularizedIncompleteBeta(*x, a, b);
    ASSERT_TRUE(back.ok());
    // Tolerance: a handful of CDF ulps, widened by the local derivative —
    // one ulp of x moves the CDF by ~pdf(x) * ulp(x), which is the hard
    // representability floor near x ~ 1 for b < 1 (exploding density).
    if (*x == 0.0 || *x == 1.0) {
      // The true quantile is closer to the endpoint than one double ulp
      // (e.g. 1 - 5e-18 for Beta(1/3, 1/3) at p = 1 - 1e-6); returning the
      // endpoint is the correctly rounded answer. Verify that claim: the
      // CDF one representable step inside must already overshoot p.
      if (*x == 1.0) {
        const double inside = std::nextafter(1.0, 0.0);
        EXPECT_LE(*RegularizedIncompleteBeta(inside, a, b), p)
            << "a=" << a << " b=" << b << " p=" << p;
      } else {
        const double inside = std::nextafter(0.0, 1.0);
        EXPECT_GE(*RegularizedIncompleteBeta(inside, a, b), p)
            << "a=" << a << " b=" << b << " p=" << p;
      }
      continue;
    }
    const double log_pdf = (a - 1.0) * std::log(*x) +
                           (b - 1.0) * std::log1p(-*x) - LogBeta(a, b);
    const double derivative_floor = std::exp(log_pdf) * (*x) * 4e-16;
    const double tol = std::max(5e-10, derivative_floor);
    EXPECT_NEAR(*back, p, tol) << "a=" << a << " b=" << b << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, BetaRoundTrip,
    ::testing::Values(
        std::make_tuple(1.0 / 3.0, 1.0 / 3.0),   // Kerman prior
        std::make_tuple(0.5, 0.5),               // Jeffreys prior
        std::make_tuple(1.0, 1.0),               // Uniform prior
        std::make_tuple(0.3333, 30.3333),        // tau=0 limiting posterior
        std::make_tuple(30.3333, 0.3333),        // tau=n limiting posterior
        std::make_tuple(2.0, 2.0), std::make_tuple(5.0, 1.5),
        std::make_tuple(1.5, 5.0), std::make_tuple(28.0, 4.0),
        std::make_tuple(170.5, 30.5),            // DBPEDIA-scale posterior
        std::make_tuple(350.0, 300.0),           // FACTBENCH-scale posterior
        std::make_tuple(1000.0, 12.0),           // very peaked, skewed
        std::make_tuple(5000.0, 5000.0)));       // very peaked, symmetric

}  // namespace
}  // namespace kgacc
