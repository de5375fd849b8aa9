#ifndef KGACC_OPT_BRACKETED_NEWTON_H_
#define KGACC_OPT_BRACKETED_NEWTON_H_

#include <cmath>
#include <concepts>
#include <limits>

/// \file bracketed_newton.h
/// A safeguarded Newton root finder on a sign bracket: Newton steps while
/// they stay inside the bracket and keep shrinking, bisection otherwise.
/// Every evaluation shrinks the bracket, so the solve cannot diverge.
///
/// Built for the unimodal HPD solve of §4.3, which nests two of these
/// loops: the outer one finds the lower endpoint, and the inner one finds
/// the matching upper endpoint on the equal-density branch
/// (`intervals/credible.cc`). The solver is a header-only template over
/// the function callable, so a lambda inlines and the solve allocates
/// nothing — the kHpd step path of an evaluation session stays
/// allocation-free.

namespace kgacc {

/// Bracket width at which a solve stops: a few ulps of 1. The brackets
/// solved here are O(1) wide; a wider bracket also stops once no double
/// lies strictly inside it.
inline constexpr double kBracketCollapseWidth =
    4.0 * std::numeric_limits<double>::epsilon();

/// Outcome of a solve: the last evaluated point and its value.
struct BracketedNewtonSolve {
  double x = 0.0;
  double fx = 0.0;
  /// Function evaluations consumed.
  int iterations = 0;
  /// True iff the solve stopped on |fx| <= f_tol or on a collapsed
  /// bracket; false on a non-finite value or after 100 evaluations.
  bool converged = false;
};

/// Finds the root of `fn` in (lo, hi), starting from `x` (the midpoint when
/// `x` is not strictly inside), and stops once |f(x)| <= f_tol or the
/// bracket collapses. `fn(x, &f, &df)` writes f(x) and f'(x); f must be
/// positive left of its root and negative right of it, which the caller
/// knows from the problem — the bracket ends are never evaluated.
template <typename Fn>
  requires std::invocable<const Fn&, double, double*, double*>
BracketedNewtonSolve SolveBracketedNewton(const Fn& fn, double lo, double hi,
                                          double x, double f_tol) {
  constexpr int kMaxIterations = 100;
  BracketedNewtonSolve out;
  if (!(lo < x && x < hi)) x = lo + 0.5 * (hi - lo);
  // Which bracket ends have moved onto evaluated points, and the last two
  // step lengths (see the creeping test below).
  bool lo_seen = false;
  bool hi_seen = false;
  double step = hi - lo;
  double step_before = step;
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    double f = 0.0;
    double df = 0.0;
    fn(x, &f, &df);
    out.x = x;
    out.fx = f;
    out.iterations = iter;
    if (!std::isfinite(f)) return out;
    if (std::fabs(f) <= f_tol) {
      out.converged = true;
      return out;
    }
    if (f > 0.0) {
      lo = x;
      lo_seen = true;
    } else {
      hi = x;
      hi_seen = true;
    }
    const double mid = lo + 0.5 * (hi - lo);
    if (hi - lo <= kBracketCollapseWidth || !(lo < mid && mid < hi)) {
      out.converged = true;
      return out;
    }
    // A step that leaves the bracket or is not finite (the comparisons fail
    // for NaN) is replaced by bisection. So is one that creeps — fails to
    // halve the step before last — once the root is caught between two
    // evaluated points; before that, Newton steps may still grow while they
    // walk toward a distant root.
    const double next = x - f / df;
    const bool creeping = lo_seen && hi_seen &&
                          std::fabs(next - x) > 0.5 * std::fabs(step_before);
    const bool newton = lo < next && next < hi && !creeping;
    step_before = step;
    step = (newton ? next : mid) - x;
    x = newton ? next : mid;
  }
  return out;
}

}  // namespace kgacc

#endif  // KGACC_OPT_BRACKETED_NEWTON_H_
