#include "kgacc/opt/brent.h"

#include <cmath>
#include <limits>

#include "kgacc/opt/bracketed_newton.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(BracketedNewtonTest, SolvesClassicFixedPoint) {
  // cos(x) = x has the unique root 0.7390851332151607 (the Dottie number).
  const BracketedNewtonSolve r = SolveBracketedNewton(
      [](double x, double* f, double* df) {
        *f = std::cos(x) - x;
        *df = -std::sin(x) - 1.0;
      },
      0.0, 1.0, 0.2, 1e-14);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-13);
  EXPECT_LE(r.iterations, 6);
}

TEST(BracketedNewtonTest, StepsLeavingTheBracketBisect) {
  // Plain Newton on atan diverges from |x| > 1.39; the bracket holds it.
  const BracketedNewtonSolve r = SolveBracketedNewton(
      [](double x, double* f, double* df) {
        *f = -std::atan(x);
        *df = -1.0 / (1.0 + x * x);
      },
      -1.0, 10.0, 5.0, 1e-14);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.0, 1e-14);
}

TEST(BracketedNewtonTest, CreepingStepsBisect) {
  // A slope reported 0.55 for a true 1 makes every step overshoot by 82%:
  // the iterates alternate around the root, shrinking too slowly to reach
  // the tolerance within the evaluation cap without bisection.
  const BracketedNewtonSolve r = SolveBracketedNewton(
      [](double x, double* f, double* df) {
        *f = 0.3 - x;
        *df = -0.55;
      },
      0.0, 1.0, 0.9, 1e-12);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.3, 1e-12);
  EXPECT_LT(r.iterations, 100);
}

TEST(BracketedNewtonTest, NonFiniteValueStopsUnconverged) {
  const BracketedNewtonSolve r = SolveBracketedNewton(
      [](double, double* f, double* df) {
        *f = std::numeric_limits<double>::quiet_NaN();
        *df = 1.0;
      },
      0.0, 1.0, 0.5, 1e-12);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

TEST(MinimizeBrentTest, QuadraticMinimum) {
  const auto r = MinimizeBrent(
      [](double x) { return (x - 2.0) * (x - 2.0) + 3.0; }, 0.0, 5.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x, 2.0, 1e-7);
  EXPECT_NEAR(r->fx, 3.0, 1e-12);
}

TEST(MinimizeBrentTest, NonQuadraticSmoothMinimum) {
  // f(x) = x - ln(x); minimum at x = 1 with f = 1.
  const auto r = MinimizeBrent(
      [](double x) { return x - std::log(x); }, 0.01, 10.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x, 1.0, 1e-6);
  EXPECT_NEAR(r->fx, 1.0, 1e-10);
}

TEST(MinimizeBrentTest, MinimumAtIntervalEdge) {
  // Monotone increasing on [1, 3]: minimizer pinned near the left edge.
  const auto r = MinimizeBrent([](double x) { return x * x; }, 1.0, 3.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x, 1.0, 1e-4);
}

TEST(MinimizeBrentTest, FlatFunctionTerminates) {
  const auto r = MinimizeBrent([](double) { return 7.0; }, 0.0, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->fx, 7.0);
}

TEST(MinimizeBrentTest, RejectsEmptyInterval) {
  EXPECT_FALSE(MinimizeBrent([](double x) { return x; }, 1.0, 1.0).ok());
  EXPECT_FALSE(MinimizeBrent([](double x) { return x; }, 2.0, 1.0).ok());
}

TEST(MinimizeBrentTest, AsymmetricValleyFoundPrecisely) {
  // f(x) = |x - 0.3|^1.5 is non-smooth at the minimizer; Brent still
  // converges via golden-section steps.
  const auto r = MinimizeBrent(
      [](double x) { return std::pow(std::fabs(x - 0.3), 1.5); }, 0.0, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x, 0.3, 1e-5);
}

}  // namespace
}  // namespace kgacc
