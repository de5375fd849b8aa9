#include "kgacc/math/student_t.h"

#include <cmath>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(StudentTCdfTest, CenterIsHalf) {
  for (const double nu : {1.0, 2.0, 5.0, 30.0, 500.0}) {
    EXPECT_NEAR(*StudentTCdf(0.0, nu), 0.5, 1e-13) << nu;
  }
}

TEST(StudentTCdfTest, MatchesCauchyClosedFormForNu1) {
  // nu = 1 is the Cauchy distribution: F(t) = 1/2 + atan(t)/pi.
  for (double t = -5.0; t <= 5.0; t += 0.5) {
    EXPECT_NEAR(*StudentTCdf(t, 1.0), 0.5 + std::atan(t) / M_PI, 1e-12) << t;
  }
}

TEST(StudentTCdfTest, MatchesClosedFormForNu2) {
  // nu = 2: F(t) = 1/2 + t / (2 sqrt(2 + t^2)).
  for (double t = -5.0; t <= 5.0; t += 0.5) {
    EXPECT_NEAR(*StudentTCdf(t, 2.0),
                0.5 + t / (2.0 * std::sqrt(2.0 + t * t)), 1e-12)
        << t;
  }
}

TEST(StudentTCdfTest, ApproachesNormalForLargeNu) {
  // At nu = 1e6 the t CDF should match the normal CDF to ~1e-6.
  const double values[] = {-2.0, -1.0, 0.5, 1.96};
  const double normal[] = {0.022750131948179195, 0.15865525393145707,
                           0.6914624612740131, 0.9750021048517795};
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(*StudentTCdf(values[i], 1e6), normal[i], 1e-5) << values[i];
  }
}

TEST(StudentTCdfTest, SymmetryAboutZero) {
  for (const double nu : {3.0, 8.0, 25.0}) {
    for (double t = 0.25; t < 4.0; t += 0.5) {
      EXPECT_NEAR(*StudentTCdf(t, nu) + *StudentTCdf(-t, nu), 1.0, 1e-12);
    }
  }
}

TEST(StudentTCdfTest, RejectsInvalidInputs) {
  EXPECT_FALSE(StudentTCdf(1.0, 0.0).ok());
  EXPECT_FALSE(StudentTCdf(1.0, -3.0).ok());
  EXPECT_FALSE(StudentTCdf(std::nan(""), 3.0).ok());
}

TEST(StudentTTwoSidedPTest, MatchesTailSumOfCdf) {
  for (const double nu : {2.0, 7.0, 40.0}) {
    for (double t = 0.5; t < 4.0; t += 0.5) {
      const double from_cdf =
          2.0 * (1.0 - *StudentTCdf(std::fabs(t), nu));
      EXPECT_NEAR(*StudentTTwoSidedP(t, nu), from_cdf, 1e-12)
          << "nu=" << nu << " t=" << t;
      EXPECT_NEAR(*StudentTTwoSidedP(-t, nu), from_cdf, 1e-12);
    }
  }
}

TEST(StudentTTwoSidedPTest, ZeroStatisticGivesPOne) {
  EXPECT_NEAR(*StudentTTwoSidedP(0.0, 10.0), 1.0, 1e-14);
}

}  // namespace
}  // namespace kgacc
