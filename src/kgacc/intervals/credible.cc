#include "kgacc/intervals/credible.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kgacc/opt/bracketed_newton.h"
#include "kgacc/opt/brent.h"
#include "kgacc/opt/slsqp.h"

namespace kgacc {

namespace {

/// Coverage residual |F(u) - F(l) - (1 - alpha)| at which the HPD root
/// solve stops: far below statistical meaning, yet within the accuracy of
/// the incomplete-beta kernel for all but extremely peaked posteriors
/// (those stop on a collapsed bracket instead).
constexpr double kCoverageTolerance = 1e-12;

thread_local HpdSolveStats t_hpd_stats;

HpdPathTally& TallyFor(HpdPath path) {
  switch (path) {
    case HpdPath::kLimiting:
      return t_hpd_stats.limiting;
    case HpdPath::kNewton:
      return t_hpd_stats.newton;
    case HpdPath::kSlsqp:
      return t_hpd_stats.slsqp;
    case HpdPath::kOneDim:
      return t_hpd_stats.onedim;
  }
  return t_hpd_stats.limiting;
}

void TallySolve(const HpdResult& result) {
  HpdPathTally& tally = TallyFor(result.path);
  ++tally.solves;
  tally.iterations += static_cast<uint64_t>(result.solver_iterations);
  tally.cdf_evals += static_cast<uint64_t>(result.cdf_evals);
  tally.pdf_evals += static_cast<uint64_t>(result.pdf_evals);
  tally.quantile_evals += static_cast<uint64_t>(result.quantile_evals);
}

Status ValidateAlpha(double alpha) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::OutOfRange("significance level alpha must be in (0,1)");
  }
  return Status::OK();
}

/// Standard-case HPD as one bracketed root (Thms. 1-2). The lower endpoint
/// is l = e^t, and u(l) is the point right of the mode with the same
/// density as l. The coverage g(t) = F(u(l)) - F(l) - (1 - alpha) falls
/// strictly from alpha (l -> 0) to -(1 - alpha) (l at the mode), so the
/// root is unique and the bracketed Newton always reaches it. One outer
/// step costs 2 CDF + 1 PDF evaluations; the inner equal-density solve
/// works on the log-density kernel and costs none.
Status HpdViaNewton(const BetaDistribution& posterior, double alpha,
                    const Interval& start, HpdResult* out) {
  const double am1 = posterior.a() - 1.0;
  const double bm1 = posterior.b() - 1.0;
  const double mode = posterior.Mode();
  // Log-density kernel measured from the peak, K(x) - K(mode) <= 0. The
  // raw kernel of a concentrated posterior is a large number whose leading
  // digits cancel in K(u) - K(l); this form keeps them. Each term is
  // ln(p / q) with d = p - q, taken through log1p near the mode.
  const auto log_ratio = [](double p, double q, double d) {
    return std::fabs(d) < 0.5 * q ? std::log1p(d / q) : std::log(p / q);
  };
  const auto kernel = [am1, bm1, mode, log_ratio](double x) {
    return am1 * log_ratio(x, mode, x - mode) +
           bm1 * log_ratio(1.0 - x, 1.0 - mode, mode - x);
  };
  const auto slope = [am1, bm1](double x) {
    return am1 / x - bm1 / (1.0 - x);
  };

  out->path = HpdPath::kNewton;
  if (1.0 - mode <= kBracketCollapseWidth) {
    // The mode sits within rounding of 1 (b barely above 1): to working
    // precision the interval is the monotone limit [F^-1(alpha), 1] of
    // Eq. 10.
    ++out->quantile_evals;
    KGACC_ASSIGN_OR_RETURN(const double l, posterior.Quantile(alpha));
    out->interval = Interval{l, 1.0};
    return Status::OK();
  }

  // One outer point: l = e^t, its partner u, the coverage residual g and
  // dg/dt, the branch tangent du/dt (which seeds the next partner solve),
  // and the density certificate K(l) - K(u).
  struct Point {
    double l = 0.0;
    double u = 0.0;
    double g = 0.0;
    double dg = 0.0;
    double du_dt = 0.0;
    double density_residual = 0.0;
  };
  const auto evaluate = [&](double t, double u_seed) {
    Point p;
    p.l = std::exp(t);
    const double k_l = kernel(p.l);
    // The tolerance is relative: the kernel of a nearly flat posterior is
    // tiny everywhere.
    const BracketedNewtonSolve partner = SolveBracketedNewton(
        [&](double x, double* h, double* dh) {
          *h = kernel(x) - k_l;
          *dh = slope(x);
        },
        mode, 1.0, u_seed, 1e-12 * std::fabs(k_l));
    p.u = partner.x;
    p.density_residual = -partner.fx;
    // du/dl on the branch. A partner pinned against 1 (its root lies
    // within rounding of 1, right of u) does not move with l.
    const bool pinned =
        partner.fx > 0.0 && 1.0 - p.u <= kBracketCollapseWidth;
    const double ratio = pinned ? 0.0 : slope(p.l) / slope(p.u);
    p.du_dt = p.l * ratio;
    out->cdf_evals += 2;
    ++out->pdf_evals;
    p.g = std::numeric_limits<double>::quiet_NaN();
    if (partner.converged) {
      double f_l = 0.0, f_u = 0.0;
      posterior.CdfPair(p.l, p.u, &f_l, &f_u);
      p.g = f_u - f_l - (1.0 - alpha);
    }
    p.dg = std::exp(t + posterior.LogPdf(p.l)) * (ratio - 1.0);
    return p;
  };

  const double t_floor = std::log(std::numeric_limits<double>::min());
  double t_last =
      std::log(start.lower > 0.0 && start.lower < mode ? start.lower
                                                       : 0.5 * mode);
  Point last;
  last.u = start.upper;
  bool saw_positive = false;
  bool below_floor = false;
  const auto coverage = [&](double t, double* g, double* dg) {
    last = evaluate(t, last.u + last.du_dt * (t - t_last));
    t_last = t;
    *g = last.g;
    *dg = last.dg;
    saw_positive = saw_positive || last.g > 0.0;
    // A Newton step out through the floor before any coverage surplus was
    // seen: if the coverage at the floor is still short, the root lies
    // below the smallest normal double (a barely above 1). End the solve
    // there; the closed form below replaces it.
    if (!saw_positive && t - last.g / last.dg <= t_floor) {
      below_floor = !(evaluate(t_floor, last.u).g > 0.0);
      saw_positive = true;
      if (below_floor) *g = 0.0;
    }
  };
  const BracketedNewtonSolve solve = SolveBracketedNewton(
      coverage, t_floor, std::log(mode), t_last, kCoverageTolerance);
  if (!solve.converged) {
    return Status::NumericError("HPD root solve did not converge");
  }
  out->solver_iterations += solve.iterations;
  out->kkt_density_residual = last.density_residual;
  if (below_floor) {
    // To working precision the interval is the monotone limit [0,
    // F^-1(1 - alpha)] of Eq. 11.
    ++out->quantile_evals;
    KGACC_ASSIGN_OR_RETURN(const double u, posterior.Quantile(1.0 - alpha));
    out->interval = Interval{0.0, u};
    out->kkt_coverage_residual = 0.0;
    return Status::OK();
  }
  out->interval = Interval{last.l, last.u};
  out->kkt_coverage_residual = solve.fx;
  return Status::OK();
}

/// Standard-case HPD via the SQP solver: minimize (u - l) subject to
/// F(u) - F(l) = 1 - alpha with (l, u) in [0, 1]^2 (§4.3).
Status HpdViaSlsqp(const BetaDistribution& posterior, double alpha,
                   const Interval& warm_start, HpdResult* out) {
  SlsqpProblem problem;
  problem.objective = [](const std::vector<double>& x) { return x[1] - x[0]; };
  problem.gradient = [](const std::vector<double>&) {
    return std::vector<double>{-1.0, 1.0};
  };
  problem.eq_constraints.push_back(
      [&posterior, alpha, out](const std::vector<double>& x) {
        out->cdf_evals += 2;
        double f_l = 0.0, f_u = 0.0;
        posterior.CdfPair(x[0], x[1], &f_l, &f_u);
        return f_u - f_l - (1.0 - alpha);
      });
  problem.eq_gradients.push_back(
      [&posterior, out](const std::vector<double>& x) {
        out->pdf_evals += 2;
        return std::vector<double>{-posterior.Pdf(x[0]), posterior.Pdf(x[1])};
      });
  problem.lower = {0.0, 0.0};
  problem.upper = {1.0, 1.0};

  SlsqpOptions options;
  options.max_iterations = 80;
  options.constraint_tol = 1e-10;
  // Endpoint precision: intervals live on [0,1] and the stop rule compares
  // the MoE against thresholds around 5e-2, so 1e-9 endpoints are already
  // six orders of magnitude past any statistical meaning. The previous
  // 1e-11 bought nothing but 2-4 extra SQP iterations (~2 CDF evaluations
  // each) per solve on the evaluation hot path.
  options.step_tol = 1e-9;
  // KKT stationarity: a short first step from a carried warm start is not
  // a solution certificate (the carry gate at 1e-9 width sits exactly on
  // step_tol); demand a stationary projected Lagrangian gradient, whose
  // natural scale here is O(1) (the objective gradient is (-1, 1)).
  options.stationarity_tol = 1e-6;

  KGACC_ASSIGN_OR_RETURN(
      SlsqpSolve solve,
      MinimizeSlsqp(problem, {warm_start.lower, warm_start.upper}, options));
  if (!solve.converged &&
      (solve.max_violation > 1e-6 || solve.kkt_residual > 1e-6)) {
    return Status::NumericError("HPD SQP failed to satisfy the coverage "
                                "constraint at a stationary point");
  }
  out->interval = Interval{solve.x[0], solve.x[1]};
  out->solver_iterations += solve.iterations;
  out->path = HpdPath::kSlsqp;
  return Status::OK();
}

/// Standard-case HPD via 1-D reduction: for each candidate lower bound l,
/// the matching upper bound is u(l) = F^{-1}(F(l) + 1 - alpha); the width
/// u(l) - l is unimodal in l for a unimodal posterior, so Brent's method
/// finds the global minimum.
Status HpdViaOneDim(const BetaDistribution& posterior, double alpha,
                    HpdResult* out) {
  ++out->quantile_evals;
  KGACC_ASSIGN_OR_RETURN(const double l_max, posterior.Quantile(alpha));
  Status failure = Status::OK();
  auto width = [&](double l) {
    const double target = posterior.Cdf(l) + (1.0 - alpha);
    ++out->cdf_evals;
    ++out->quantile_evals;
    Result<double> u = posterior.Quantile(std::min(target, 1.0));
    if (!u.ok()) {
      if (failure.ok()) failure = u.status();
      // Poison value strictly wider than any feasible interval (widths on
      // [0, 1] never exceed 1), so a failed evaluation can never be
      // *selected* as the minimum; the failure itself is surfaced below.
      return 2.0;
    }
    return *u - l;
  };
  // Bracket floor: Quantile(alpha) can land arbitrarily close to 0 for
  // posteriors concentrated near the origin, and a denormal upper bracket
  // degenerates Brent's interval arithmetic. Flooring the bracket *up* is
  // safe — the optimal l satisfies F(l) <= alpha, so it stays inside.
  KGACC_ASSIGN_OR_RETURN(
      ScalarSolve solve,
      MinimizeBrent(width, 0.0, std::max(l_max, 1e-12), 1e-12));
  // Any quantile failure poisons the search; surface it instead of
  // accepting a minimizer chosen against poisoned widths.
  KGACC_RETURN_IF_ERROR(failure);

  const double l = solve.x;
  ++out->cdf_evals;
  ++out->quantile_evals;
  KGACC_ASSIGN_OR_RETURN(
      const double u,
      posterior.Quantile(std::min(posterior.Cdf(l) + (1.0 - alpha), 1.0)));
  out->interval = Interval{l, u};
  out->solver_iterations += solve.iterations;
  out->path = HpdPath::kOneDim;
  return Status::OK();
}

Result<HpdResult> HpdIntervalImpl(const BetaDistribution& posterior,
                                  double alpha, const HpdOptions& options) {
  KGACC_RETURN_IF_ERROR(ValidateAlpha(alpha));
  HpdResult out;
  out.shape = posterior.Shape();

  switch (out.shape) {
    case BetaShape::kDecreasing: {
      // Limiting case (2), Eq. 11: density peaks at 0.
      ++out.quantile_evals;
      KGACC_ASSIGN_OR_RETURN(const double u, posterior.Quantile(1.0 - alpha));
      out.interval = Interval{0.0, u};
      return out;
    }
    case BetaShape::kIncreasing: {
      // Limiting case (1), Eq. 10: density peaks at 1.
      ++out.quantile_evals;
      KGACC_ASSIGN_OR_RETURN(const double l, posterior.Quantile(alpha));
      out.interval = Interval{l, 1.0};
      return out;
    }
    case BetaShape::kUShaped: {
      // Both endpoints are modes; the highest-density *region* is a union
      // of two disjoint pieces and no single interval is HPD. Report the ET
      // interval, which remains a valid 1-alpha CrI.
      out.quantile_evals += 2;
      KGACC_ASSIGN_OR_RETURN(out.interval,
                             EqualTailedInterval(posterior, alpha));
      return out;
    }
    case BetaShape::kUnimodal:
      break;
  }

  if (options.solver == HpdSolver::kOneDim) {
    KGACC_RETURN_IF_ERROR(HpdViaOneDim(posterior, alpha, &out));
    return out;
  }

  Interval start;
  bool have_start = false;
  if (options.warm_start != nullptr) {
    // Clip the carried-over interval into the domain; limiting-case
    // endpoints (exact 0 or 1) are nudged inward so the constraint
    // gradient stays nonzero at the start.
    const double lo =
        std::clamp(options.warm_start->lower, 1e-9, 1.0 - 1e-9);
    const double hi =
        std::clamp(options.warm_start->upper, 1e-9, 1.0 - 1e-9);
    if (hi - lo > 1e-9) {
      start = Interval{lo, hi};
      have_start = true;
    }
  }
  if (!have_start && options.warm_start_at_et) {
    out.quantile_evals += 2;
    KGACC_ASSIGN_OR_RETURN(start, EqualTailedInterval(posterior, alpha));
    have_start = true;
  }
  if (!have_start) {
    // Cold start: a symmetric interval about the mode, clipped to [0, 1].
    const double mode = posterior.Mode();
    start = Interval{std::max(0.0, mode - 0.25), std::min(1.0, mode + 0.25)};
  }

  if (options.solver == HpdSolver::kNewton) {
    KGACC_RETURN_IF_ERROR(HpdViaNewton(posterior, alpha, start, &out));
    return out;
  }
  // Near-edge or extremely peaked posteriors can defeat the SQP line
  // search; the reference then falls back to the 1-D reduction.
  if (!HpdViaSlsqp(posterior, alpha, start, &out).ok()) {
    KGACC_RETURN_IF_ERROR(HpdViaOneDim(posterior, alpha, &out));
  }
  return out;
}

}  // namespace

const char* HpdPathName(HpdPath path) {
  switch (path) {
    case HpdPath::kLimiting:
      return "limiting";
    case HpdPath::kNewton:
      return "newton";
    case HpdPath::kSlsqp:
      return "slsqp";
    case HpdPath::kOneDim:
      return "onedim";
  }
  return "unknown";
}

HpdSolveStats ThreadHpdStatsSnapshot() { return t_hpd_stats; }

void ResetThreadHpdStats() { t_hpd_stats = HpdSolveStats{}; }

Result<Interval> EqualTailedInterval(const BetaDistribution& posterior,
                                     double alpha) {
  KGACC_RETURN_IF_ERROR(ValidateAlpha(alpha));
  KGACC_ASSIGN_OR_RETURN(const double lower, posterior.Quantile(alpha / 2.0));
  KGACC_ASSIGN_OR_RETURN(const double upper,
                         posterior.Quantile(1.0 - alpha / 2.0));
  return Interval{lower, upper};
}

Result<HpdResult> HpdInterval(const BetaDistribution& posterior, double alpha,
                              const HpdOptions& options) {
  Result<HpdResult> result = HpdIntervalImpl(posterior, alpha, options);
  if (result.ok()) TallySolve(*result);
  return result;
}

}  // namespace kgacc
