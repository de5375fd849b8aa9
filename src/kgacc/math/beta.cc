#include "kgacc/math/beta.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kgacc/math/special.h"

namespace kgacc {

Result<BetaDistribution> BetaDistribution::Create(double a, double b) {
  if (!(a > 0.0) || !(b > 0.0) || !std::isfinite(a) || !std::isfinite(b)) {
    return Status::InvalidArgument(
        "Beta distribution requires finite a > 0 and b > 0");
  }
  return BetaDistribution(a, b, LogBeta(a, b));
}

double BetaDistribution::Mode() const {
  KGACC_DCHECK(Shape() == BetaShape::kUnimodal);
  return (a_ - 1.0) / (a_ + b_ - 2.0);
}

BetaShape BetaDistribution::Shape() const {
  const bool a_gt1 = a_ > 1.0;
  const bool b_gt1 = b_ > 1.0;
  if (a_gt1 && b_gt1) return BetaShape::kUnimodal;
  if (!a_gt1 && b_gt1) return BetaShape::kDecreasing;
  if (a_gt1 && !b_gt1) return BetaShape::kIncreasing;
  return BetaShape::kUShaped;
}

double BetaDistribution::LogPdf(double x) const {
  if (x < 0.0 || x > 1.0) return -std::numeric_limits<double>::infinity();
  if (x == 0.0) {
    if (a_ > 1.0) return -std::numeric_limits<double>::infinity();
    if (a_ == 1.0) return (b_ - 1.0) * 0.0 - log_beta_;  // log f(0) = -log B.
    return std::numeric_limits<double>::infinity();
  }
  if (x == 1.0) {
    if (b_ > 1.0) return -std::numeric_limits<double>::infinity();
    if (b_ == 1.0) return -log_beta_;
    return std::numeric_limits<double>::infinity();
  }
  return (a_ - 1.0) * std::log(x) + (b_ - 1.0) * std::log1p(-x) - log_beta_;
}

double BetaDistribution::Pdf(double x) const {
  const double lp = LogPdf(x);
  if (std::isinf(lp)) {
    return lp > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return std::exp(lp);
}

double BetaDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // Parameters were validated at construction, so this cannot fail; the
  // cached log B(a, b) spares the three lgamma calls per evaluation that
  // dominate a cold call (the HPD solvers evaluate this CDF hundreds of
  // times per interval at fixed (a, b)).
  return RegularizedIncompleteBeta(x, a_, b_, log_beta_).value();
}

void BetaDistribution::CdfPair(double x1, double x2, double* f1,
                               double* f2) const {
  // Cdf's clamping first, so the kernel sees arguments in [0, 1] only.
  const double c1 = std::clamp(x1, 0.0, 1.0);
  const double c2 = std::clamp(x2, 0.0, 1.0);
  // Parameters were validated at construction, so this cannot fail.
  KGACC_CHECK(
      RegularizedIncompleteBetaPair(c1, c2, a_, b_, log_beta_, f1, f2).ok());
}

Result<double> BetaDistribution::Quantile(double p) const {
  return InverseRegularizedIncompleteBeta(p, a_, b_, log_beta_);
}

}  // namespace kgacc
