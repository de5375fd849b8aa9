#ifndef KGACC_OPT_BRENT_H_
#define KGACC_OPT_BRENT_H_

#include <functional>

#include "kgacc/util/status.h"

/// \file brent.h
/// Derivative-free 1-D minimization (Brent's method). Used by the
/// reference HPD solver (`HpdSolver::kOneDim`), which reduces the
/// two-variable HPD problem to a 1-D width minimization. Bracketed roots
/// go through `opt/bracketed_newton.h`.

namespace kgacc {

/// Result of a 1-D solve.
struct ScalarSolve {
  double x = 0.0;       ///< Located minimizer.
  double fx = 0.0;      ///< Function value at `x`.
  int iterations = 0;   ///< Iterations consumed.
};

/// Minimizes `f` over [a, b] with Brent's parabolic-interpolation /
/// golden-section method. `f` should be unimodal on [a, b] for a global
/// guarantee; otherwise a local minimum is returned.
Result<ScalarSolve> MinimizeBrent(const std::function<double(double)>& f,
                                  double a, double b, double tol = 1e-10,
                                  int max_iter = 200);

}  // namespace kgacc

#endif  // KGACC_OPT_BRENT_H_
