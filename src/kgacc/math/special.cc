#include "kgacc/math/special.h"

#include <math.h>

#include <cmath>

namespace kgacc {

namespace {

constexpr int kMaxCfIterations = 400;
constexpr double kCfEpsilon = 1e-15;
constexpr double kTiny = 1e-300;
// Relative resolution of the quantile iteration: a few ulps.
constexpr double kQuantileResolution = 4e-16;

/// One modified-Lentz chain for the continued fraction of I_x(a, b)
/// (Abramowitz & Stegun 26.5.8 / DLMF 8.17.22). Step(m) takes the even and
/// the odd term of index m; the chain is done once a step moves h by less
/// than kCfEpsilon, or after kMaxCfIterations steps. The loop is a chain of
/// dependent divides, so two lanes stepped side by side overlap in the
/// pipeline while each does exactly the arithmetic it would do alone.
struct LentzLane {
  LentzLane(double x_in, double a_in, double b_in)
      : x(x_in), a(a_in), b(b_in), qab(a_in + b_in), qap(a_in + 1.0),
        qam(a_in - 1.0) {
    d = 1.0 - qab * x / qap;
    if (std::fabs(d) < kTiny) d = kTiny;
    d = 1.0 / d;
    h = d;
  }

  void Step(int m) {
    const double m2 = 2.0 * m;
    // Even step.
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    done = std::fabs(del - 1.0) < kCfEpsilon || m == kMaxCfIterations;
  }

  double x, a, b, qab, qap, qam;
  double c = 1.0;
  double d = 0.0;
  double h = 0.0;
  bool done = false;
};

/// I_x(a, b) at one x in [0, 1]: the fraction on whichever side of the
/// split (a+1)/(a+b+2) it converges fast, and the front factor that scales
/// it. The endpoints need no fraction; their lane starts done.
struct IncompleteBetaTerm {
  IncompleteBetaTerm(double x_in, double a_in, double b_in)
      : x(x_in), a(a_in), b(b_in),
        mirrored(!(x_in < (a_in + 1.0) / (a_in + b_in + 2.0))),
        lane(mirrored ? LentzLane(1.0 - x_in, b_in, a_in)
                      : LentzLane(x_in, a_in, b_in)) {
    lane.done = x == 0.0 || x == 1.0;
  }

  double Value(double log_beta) const {
    if (x == 0.0) return 0.0;
    if (x == 1.0) return 1.0;
    double result;
    if (!mirrored) {
      // Front factor x^a (1-x)^b / (a B(a,b)), evaluated in log space.
      const double log_front =
          a * std::log(x) + b * std::log1p(-x) - std::log(a) - log_beta;
      result = std::exp(log_front) * lane.h;
    } else {
      // Symmetry I_x(a,b) = 1 - I_{1-x}(b,a). The mirrored front factor
      // uses (b, a) at 1-x, which differs from the direct one only through
      // the 1/a vs 1/b term (LogBeta is symmetric).
      const double log_front_mirror =
          b * std::log1p(-x) + a * std::log(x) - std::log(b) - log_beta;
      result = 1.0 - std::exp(log_front_mirror) * lane.h;
    }
    // Clamp tiny negative / >1 excursions from the final subtraction.
    if (result < 0.0) result = 0.0;
    if (result > 1.0) result = 1.0;
    return result;
  }

  double x, a, b;
  bool mirrored;
  LentzLane lane;
};

Status ValidateIncompleteBeta(double x, double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) {
    return Status::InvalidArgument("beta parameters must be positive");
  }
  if (!(x >= 0.0) || !(x <= 1.0)) {
    return Status::OutOfRange("incomplete beta argument x must be in [0,1]");
  }
  return Status::OK();
}

/// Starting point for the quantile iteration at p <= 1/2.
double QuantileStart(double p, double a, double b, double log_beta) {
  if (a >= 1.0 && b >= 1.0) {
    // AS 109 (Majumder & Bhattacharjee, 1973; Numerical Recipes §6.4): a
    // rational approximation of the upper normal deviate y of p, mapped
    // through a Cornish-Fisher style expansion of the Beta quantile.
    const double t = std::sqrt(-2.0 * std::log(p));
    const double y =
        t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t));
    const double lambda = (y * y - 3.0) / 6.0;
    const double ra = 1.0 / (2.0 * a - 1.0);
    const double rb = 1.0 / (2.0 * b - 1.0);
    const double h = 2.0 / (ra + rb);
    const double w = y * std::sqrt(h + lambda) / h -
                     (rb - ra) * (lambda + 5.0 / 6.0 - 2.0 / (3.0 * h));
    const double x = a / (a + b * std::exp(2.0 * w));
    if (x > 0.0 && x < 1.0) return x;
  }
  // Near the lower tail the leading term of the series gives
  // I_x(a, b) ~ x^a / (a B(a, b)), inverted in closed form; otherwise start
  // from the mean with a crude probit nudge.
  const double x_tail = std::exp((std::log(p) + std::log(a) + log_beta) / a);
  const double mean = a / (a + b);
  if (x_tail < 0.5 * mean) return x_tail;
  const double sd = std::sqrt(a * b / ((a + b) * (a + b) * (a + b + 1.0)));
  const double z = std::log(p / (1.0 - p)) / 1.702;
  const double x = mean + z * sd;
  return x > 1e-12 && x < 1.0 - 1e-12 ? x : mean;
}

}  // namespace

double LogGamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

double LogBeta(double a, double b) {
  KGACC_DCHECK(a > 0.0 && b > 0.0);
  return LogGamma(a) + LogGamma(b) - LogGamma(a + b);
}

namespace internal {

double BetaContinuedFraction(double x, double a, double b) {
  LentzLane lane(x, a, b);
  for (int m = 1; !lane.done; ++m) lane.Step(m);
  return lane.h;
}

}  // namespace internal

Result<double> RegularizedIncompleteBeta(double x, double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) {
    return Status::InvalidArgument("beta parameters must be positive");
  }
  return RegularizedIncompleteBeta(x, a, b, LogBeta(a, b));
}

Result<double> RegularizedIncompleteBeta(double x, double a, double b,
                                         double log_beta) {
  KGACC_RETURN_IF_ERROR(ValidateIncompleteBeta(x, a, b));
  IncompleteBetaTerm term(x, a, b);
  for (int m = 1; !term.lane.done; ++m) term.lane.Step(m);
  return term.Value(log_beta);
}

Status RegularizedIncompleteBetaPair(double x1, double x2, double a, double b,
                                     double log_beta, double* f1,
                                     double* f2) {
  KGACC_RETURN_IF_ERROR(ValidateIncompleteBeta(x1, a, b));
  KGACC_RETURN_IF_ERROR(ValidateIncompleteBeta(x2, a, b));
  IncompleteBetaTerm term1(x1, a, b);
  IncompleteBetaTerm term2(x2, a, b);
  LentzLane& lane1 = term1.lane;
  LentzLane& lane2 = term2.lane;
  // Interleaved: a lane that converges freezes while the other runs on.
  for (int m = 1; !(lane1.done && lane2.done); ++m) {
    if (!lane1.done) lane1.Step(m);
    if (!lane2.done) lane2.Step(m);
  }
  *f1 = term1.Value(log_beta);
  *f2 = term2.Value(log_beta);
  return Status::OK();
}

Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) {
    return Status::InvalidArgument("beta parameters must be positive");
  }
  return internal::InverseRegularizedIncompleteBeta(p, a, b, LogBeta(a, b),
                                                    nullptr);
}

Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b,
                                                double log_beta) {
  return internal::InverseRegularizedIncompleteBeta(p, a, b, log_beta,
                                                    nullptr);
}

namespace internal {

Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b,
                                                double log_beta,
                                                int* cdf_evals) {
  if (!(a > 0.0) || !(b > 0.0)) {
    return Status::InvalidArgument("beta parameters must be positive");
  }
  if (!(p >= 0.0) || !(p <= 1.0)) {
    return Status::OutOfRange("probability must be in [0,1]");
  }
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  // Always solve in the lower tail: the quantile there may be a tiny number
  // (e.g. 1e-18 for sub-uniform shapes) that needs *relative* precision,
  // which the mirrored upper-tail representation 1 - x cannot hold.
  if (p > 0.5) {
    KGACC_ASSIGN_OR_RETURN(
        const double y,
        InverseRegularizedIncompleteBeta(1.0 - p, b, a, log_beta, cdf_evals));
    return 1.0 - y;
  }

  // Safeguarded Halley iteration with a maintained bracket. Bisection
  // between the bracket ends is geometric (sqrt of the product) while the
  // lower end is far from the upper, so tiny quantiles are located in
  // O(log log) steps.
  double x = QuantileStart(p, a, b, log_beta);
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 300; ++iter) {
    KGACC_ASSIGN_OR_RETURN(const double cdf,
                           RegularizedIncompleteBeta(x, a, b, log_beta));
    if (cdf_evals != nullptr) ++*cdf_evals;
    const double err = cdf - p;
    if (err > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    // Relative convergence: either the CDF matches to ~3 ulps of p or the
    // bracket has collapsed to relative machine width.
    if (std::fabs(err) <= kQuantileResolution * p ||
        hi - lo <= kQuantileResolution * hi) {
      return x;
    }

    double next = 0.0;
    bool have_step = false;
    if (x > 0.0 && x < 1.0) {
      const double log_pdf =
          (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) - log_beta;
      const double pdf = std::exp(log_pdf);
      if (pdf > kTiny && std::isfinite(pdf)) {
        // Halley divides the Newton step u by 1 - u f'/(2f), with
        // f'/f = (a-1)/x - (b-1)/(1-x). Far from the root that factor can
        // be unbounded, which stalls the iteration; take the plain Newton
        // step unless it lies in [1/2, 2].
        const double u = err / pdf;
        const double denom =
            1.0 - 0.5 * u * ((a - 1.0) / x - (b - 1.0) / (1.0 - x));
        next = x - (denom >= 0.5 && denom <= 2.0 ? u / denom : u);
        // A correction below the bracket-collapse resolution: x is the
        // root to working precision, whatever the stale bracket says.
        if (std::fabs(next - x) <= kQuantileResolution * x) return x;
        have_step = true;
      }
    }
    if (!have_step || !(next > lo) || !(next < hi)) {
      // Geometric bisection reaches tiny magnitudes quickly; fall back to
      // arithmetic bisection once the bracket is balanced.
      next = (lo > 0.0 && hi / lo > 4.0) ? std::sqrt(lo * hi)
                                         : 0.5 * (lo + hi);
      if (lo == 0.0) next = hi / 16.0;
    }
    if (next == x) return x;
    x = next;
  }
  return x;
}

}  // namespace internal

}  // namespace kgacc
