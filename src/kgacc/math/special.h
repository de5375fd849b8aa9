#ifndef KGACC_MATH_SPECIAL_H_
#define KGACC_MATH_SPECIAL_H_

#include "kgacc/util/status.h"

/// \file special.h
/// Scalar special functions underpinning every distribution in the library.
/// Implemented from scratch (no Boost/Eigen): log-beta via lgamma, the
/// regularized incomplete beta function via the modified Lentz continued
/// fraction (singly, or for two arguments in one interleaved loop), and its
/// inverse via a bracketed Halley iteration.

namespace kgacc {

/// Natural log of the complete beta function B(a, b). Requires a, b > 0.
double LogBeta(double a, double b);

/// log|Gamma(x)| via the reentrant `lgamma_r`: `std::lgamma` writes the
/// global `signgam`, a data race between concurrent workers.
double LogGamma(double x);

/// Regularized incomplete beta function I_x(a, b) = P(X <= x) for
/// X ~ Beta(a, b). Requires a, b > 0 and x in [0, 1].
///
/// Uses the continued-fraction expansion (modified Lentz algorithm) with the
/// symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the
/// fast-converging regime. Absolute accuracy is ~1e-14 over the full domain.
Result<double> RegularizedIncompleteBeta(double x, double a, double b);

/// Overload taking the precomputed `log_beta = LogBeta(a, b)`. Evaluating
/// the front factor costs three lgamma calls per invocation otherwise —
/// pure overhead for callers like `BetaDistribution`, which fix (a, b) once
/// and evaluate the CDF hundreds of times per HPD solve. Bit-identical to
/// the two-parameter overload (LogBeta is symmetric down to the last ulp,
/// so even the mirrored branch reuses the value).
Result<double> RegularizedIncompleteBeta(double x, double a, double b,
                                         double log_beta);

/// I_{x1}(a, b) and I_{x2}(a, b) into `*f1` and `*f2`, for callers that
/// need both at once (the HPD coverage F(u) - F(l)). The two continued
/// fractions run interleaved in one loop: each is a chain of dependent
/// divides, so two independent chains overlap in the pipeline. Each lane
/// does exactly the single-argument arithmetic and stops at its own
/// convergence, so the results are bit-identical to two calls of the
/// overload above. Fails, writing nothing, if either argument would.
Status RegularizedIncompleteBetaPair(double x1, double x2, double a, double b,
                                     double log_beta, double* f1, double* f2);

/// Inverse of the regularized incomplete beta function: the unique x in
/// [0, 1] with I_x(a, b) = p. Requires a, b > 0 and p in [0, 1].
///
/// Solves in the lower tail (p > 1/2 goes through the mirror (1-p, b, a)).
/// The start is the AS 109 normal-deviate approximation when a, b >= 1 and
/// otherwise the closed-form inverse of the tail series x^a / (a B(a, b)),
/// or a probit nudge from the mean when that lands past half the mean.
/// Each iteration takes a Halley step, with curvature
/// (a-1)/x - (b-1)/(1-x), when the Halley factor lies in [1/2, 2], and
/// the Newton step otherwise; a step that leaves the maintained bracket is
/// replaced by bisection (geometric while the bracket spans magnitudes).
/// It stops at whichever comes first: the CDF within 4e-16 p of p, the
/// bracket collapsed to 4e-16 of its upper end, or a correction below
/// 4e-16 x; at most 300 iterations.
Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b);

/// Overload taking the precomputed `log_beta = LogBeta(a, b)`; every
/// iteration evaluates the CDF and the log-PDF, both of which reuse it.
Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b,
                                                double log_beta);

namespace internal {

/// Continued-fraction kernel used by RegularizedIncompleteBeta; exposed for
/// targeted testing. Assumes x < (a+1)/(a+b+2) (the convergent region).
double BetaContinuedFraction(double x, double a, double b);

/// The inversion behind InverseRegularizedIncompleteBeta, exposed for
/// targeted testing: adds the number of CDF evaluations it made to
/// `*cdf_evals` unless that is null.
Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b,
                                                double log_beta,
                                                int* cdf_evals);

}  // namespace internal

}  // namespace kgacc

#endif  // KGACC_MATH_SPECIAL_H_
