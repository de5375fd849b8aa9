#ifndef KGACC_INTERVALS_CREDIBLE_H_
#define KGACC_INTERVALS_CREDIBLE_H_

#include <cstdint>

#include "kgacc/intervals/interval.h"
#include "kgacc/math/beta.h"
#include "kgacc/util/status.h"

/// \file credible.h
/// Bayesian credible intervals on a beta posterior — the paper's core
/// contribution (§4): Equal-Tailed intervals (Eq. 9) and Highest Posterior
/// Density intervals, which Theorems 1-2 prove to be the shortest and
/// unique 1-alpha interval for every annotation scenario.

namespace kgacc {

/// Which algorithm computes the standard-case (interior unimodal) HPD.
enum class HpdSolver {
  /// The standard path: one bracketed 1-D Newton root in log l on the
  /// equal-density branch of Thms. 1-2 (`opt/bracketed_newton.h`). The
  /// root always exists for a unimodal Beta, so no fallback is needed.
  kNewton,
  /// The paper's §4.3 prescription: SQP on {min u - l s.t. F(u) - F(l) =
  /// 1 - alpha}, with the 1-D reduction below as its last resort when the
  /// SQP stalls. A reference for cross-checks and the solver ablation.
  kSlsqp,
  /// Independent 1-D reduction: u(l) = F^{-1}(F(l) + 1 - alpha), Brent
  /// width minimization over l. Used for cross-validation and ablation.
  kOneDim,
};

/// Options for `HpdInterval`.
struct HpdOptions {
  HpdSolver solver = HpdSolver::kNewton;
  /// Warm-start the solver at the ET interval (Alg. 1 line 20). Disabling
  /// this (cold start at a central interval) is Ablation B.
  bool warm_start_at_et = true;
  /// Externally supplied start — typically the previous step's HPD
  /// interval in an iterative audit, where the posterior moves only a
  /// little per batch. Takes precedence over `warm_start_at_et` when it
  /// describes a usable interval (positive width inside [0, 1]); the ET
  /// quantile solves it replaces are the bulk of the standard-case cost.
  /// Not owned; must outlive the call.
  const Interval* warm_start = nullptr;
};

/// Which code path produced an HPD interval.
enum class HpdPath {
  /// Monotone / U-shaped closed forms (no numeric solve).
  kLimiting,
  /// Bracketed Newton root — the standard unimodal path.
  kNewton,
  /// SQP (`HpdSolver::kSlsqp`).
  kSlsqp,
  /// Brent 1-D reduction (`HpdSolver::kOneDim`, or the SQP's last resort).
  kOneDim,
};

const char* HpdPathName(HpdPath path);

/// An HPD computation result with solver diagnostics.
struct HpdResult {
  Interval interval;
  /// Which posterior-shape branch produced the interval.
  BetaShape shape = BetaShape::kUnimodal;
  /// Outer iterations used by the numeric solver (0 for limiting cases).
  int solver_iterations = 0;
  /// Solver path taken.
  HpdPath path = HpdPath::kLimiting;
  /// Beta-function evaluations this solve spent. A quantile counts as one
  /// evaluation even though the inverse-CDF solve internally iterates the
  /// incomplete beta several times, so these are lower bounds on
  /// incomplete-beta work — comparable across solvers.
  int cdf_evals = 0;
  int pdf_evals = 0;
  int quantile_evals = 0;
  /// Newton convergence certificate: the residuals of the two KKT
  /// equations at the returned endpoints — coverage F(u) - F(l) - (1 -
  /// alpha), and log-density equality log f(l) - log f(u). Zero for
  /// non-Newton paths.
  double kkt_coverage_residual = 0.0;
  double kkt_density_residual = 0.0;
};

/// Per-path tallies of the thread-local HPD solve statistics.
struct HpdPathTally {
  uint64_t solves = 0;
  uint64_t iterations = 0;
  uint64_t cdf_evals = 0;
  uint64_t pdf_evals = 0;
  uint64_t quantile_evals = 0;

  HpdPathTally& operator+=(const HpdPathTally& other) {
    solves += other.solves;
    iterations += other.iterations;
    cdf_evals += other.cdf_evals;
    pdf_evals += other.pdf_evals;
    quantile_evals += other.quantile_evals;
    return *this;
  }
};

/// Aggregate HPD solver counters for the calling thread, accumulated by
/// every successful `HpdInterval` on that thread. Read/reset them around a
/// measurement region to attribute incomplete-beta work to solver paths;
/// used by `bench_step_latency` to report per-solve evaluation counts in
/// BENCH_step.json.
struct HpdSolveStats {
  HpdPathTally limiting;
  HpdPathTally newton;
  HpdPathTally slsqp;
  /// Always 0 (no fallback exists); perfbench/kgbench.cc:559-566 reads it.
  HpdPathTally slsqp_fallback;
  HpdPathTally onedim;
  /// Always 0 (no warm cache exists); perfbench/kgbench.cc:559-566 reads it.
  uint64_t warm_cache_hits = 0;

  uint64_t total_solves() const {
    return limiting.solves + newton.solves + slsqp.solves +
           slsqp_fallback.solves + onedim.solves;
  }
  uint64_t total_beta_evals() const {
    uint64_t evals = 0;
    for (const HpdPathTally* t :
         {&limiting, &newton, &slsqp, &slsqp_fallback, &onedim}) {
      evals += t->cdf_evals + t->pdf_evals + t->quantile_evals;
    }
    return evals;
  }

  /// Merges another snapshot in (e.g. combining measurement windows);
  /// lives next to the tallies so a new field or path cannot silently
  /// drop out of aggregations.
  HpdSolveStats& operator+=(const HpdSolveStats& other) {
    limiting += other.limiting;
    newton += other.newton;
    slsqp += other.slsqp;
    slsqp_fallback += other.slsqp_fallback;
    onedim += other.onedim;
    warm_cache_hits += other.warm_cache_hits;
    return *this;
  }
};

/// Snapshot of this thread's counters since the last reset.
HpdSolveStats ThreadHpdStatsSnapshot();

/// Zeroes this thread's counters.
void ResetThreadHpdStats();

/// 1-alpha Equal-Tailed credible interval (Eq. 9):
/// [qBeta(alpha/2), qBeta(1 - alpha/2)] on the posterior.
Result<Interval> EqualTailedInterval(const BetaDistribution& posterior,
                                     double alpha);

/// 1-alpha Highest Posterior Density credible interval.
///
/// Dispatches on the posterior shape:
/// * interior unimodal — the solver selected by `options` (Thm. 1/2),
///   by default the bracketed Newton root;
/// * monotone decreasing (tau = 0 under an uninformative prior) —
///   [0, qBeta(1 - alpha)] (Eq. 11, Corollary 1/2);
/// * monotone increasing (tau = n) — [qBeta(alpha), 1] (Eq. 10);
/// * U-shaped (no data under a sub-uniform prior) — the density has no
///   single HPD *interval*; falls back to the ET interval.
Result<HpdResult> HpdInterval(const BetaDistribution& posterior, double alpha,
                              const HpdOptions& options = {});

}  // namespace kgacc

#endif  // KGACC_INTERVALS_CREDIBLE_H_
