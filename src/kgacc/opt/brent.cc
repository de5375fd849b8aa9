#include "kgacc/opt/brent.h"

#include <cmath>

namespace kgacc {

Result<ScalarSolve> MinimizeBrent(const std::function<double(double)>& f,
                                  double a, double b, double tol,
                                  int max_iter) {
  if (!(a < b)) {
    return Status::InvalidArgument("MinimizeBrent: requires a < b");
  }
  const double golden = 0.3819660112501051;
  double x = a + golden * (b - a);
  double w = x, v = x;
  double fx = f(x), fw = fx, fv = fx;
  double d = 0.0, e = 0.0;

  for (int iter = 1; iter <= max_iter; ++iter) {
    const double xm = 0.5 * (a + b);
    const double tol1 = tol * std::fabs(x) + 1e-15;
    const double tol2 = 2.0 * tol1;
    if (std::fabs(x - xm) <= tol2 - 0.5 * (b - a)) {
      return ScalarSolve{x, fx, iter};
    }
    bool use_golden = true;
    if (std::fabs(e) > tol1) {
      // Fit a parabola through (x, fx), (w, fw), (v, fv).
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::fabs(q);
      const double etemp = e;
      e = d;
      if (std::fabs(p) < std::fabs(0.5 * q * etemp) && p > q * (a - x) &&
          p < q * (b - x)) {
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) {
          d = (xm - x >= 0.0 ? tol1 : -tol1);
        }
        use_golden = false;
      }
    }
    if (use_golden) {
      e = (x >= xm ? a - x : b - x);
      d = golden * e;
    }
    const double u =
        (std::fabs(d) >= tol1 ? x + d : x + (d >= 0.0 ? tol1 : -tol1));
    const double fu = f(u);
    if (fu <= fx) {
      if (u >= x) {
        a = x;
      } else {
        b = x;
      }
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      if (u < x) {
        a = u;
      } else {
        b = u;
      }
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  return ScalarSolve{x, fx, max_iter};
}

}  // namespace kgacc
