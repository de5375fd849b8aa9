#include "kgacc/intervals/ahpd.h"

#include <utility>

#include "kgacc/util/codec.h"

namespace kgacc {

namespace {

void SaveHpdResult(const HpdResult& hpd, ByteWriter* w) {
  w->PutDouble(hpd.interval.lower);
  w->PutDouble(hpd.interval.upper);
  w->PutU8(static_cast<uint8_t>(hpd.shape));
  w->PutZigzag(hpd.solver_iterations);
  w->PutU8(static_cast<uint8_t>(hpd.path));
  w->PutZigzag(hpd.cdf_evals);
  w->PutZigzag(hpd.pdf_evals);
  w->PutZigzag(hpd.quantile_evals);
  w->PutDouble(hpd.kkt_coverage_residual);
  w->PutDouble(hpd.kkt_density_residual);
  w->PutBool(hpd.has_hessian);
  for (const double h : hpd.hessian) w->PutDouble(h);
}

Status LoadHpdResult(ByteReader* r, HpdResult* hpd) {
  KGACC_ASSIGN_OR_RETURN(hpd->interval.lower, r->Double());
  KGACC_ASSIGN_OR_RETURN(hpd->interval.upper, r->Double());
  KGACC_ASSIGN_OR_RETURN(const uint8_t shape, r->U8());
  hpd->shape = static_cast<BetaShape>(shape);
  KGACC_ASSIGN_OR_RETURN(const int64_t iterations, r->Zigzag());
  hpd->solver_iterations = static_cast<int>(iterations);
  KGACC_ASSIGN_OR_RETURN(const uint8_t path, r->U8());
  hpd->path = static_cast<HpdPath>(path);
  KGACC_ASSIGN_OR_RETURN(const int64_t cdf, r->Zigzag());
  KGACC_ASSIGN_OR_RETURN(const int64_t pdf, r->Zigzag());
  KGACC_ASSIGN_OR_RETURN(const int64_t quantile, r->Zigzag());
  hpd->cdf_evals = static_cast<int>(cdf);
  hpd->pdf_evals = static_cast<int>(pdf);
  hpd->quantile_evals = static_cast<int>(quantile);
  KGACC_ASSIGN_OR_RETURN(hpd->kkt_coverage_residual, r->Double());
  KGACC_ASSIGN_OR_RETURN(hpd->kkt_density_residual, r->Double());
  KGACC_ASSIGN_OR_RETURN(hpd->has_hessian, r->Bool());
  for (double& h : hpd->hessian) {
    KGACC_ASSIGN_OR_RETURN(h, r->Double());
  }
  return Status::OK();
}

}  // namespace

void SaveAhpdWarmState(const AhpdWarmState& state, ByteWriter* w) {
  w->PutVarint(state.priors.size());
  for (const AhpdWarmState::PriorState& prior : state.priors) {
    w->PutBool(prior.valid);
    w->PutDouble(prior.tau);
    w->PutDouble(prior.n);
    w->PutDouble(prior.alpha);
    SaveHpdResult(prior.hpd, w);
    w->PutBool(prior.has_hessian);
    for (const double h : prior.hessian) w->PutDouble(h);
  }
}

Status LoadAhpdWarmState(ByteReader* r, AhpdWarmState* state) {
  KGACC_ASSIGN_OR_RETURN(const uint64_t count, r->Varint());
  state->priors.assign(count, AhpdWarmState::PriorState{});
  for (AhpdWarmState::PriorState& prior : state->priors) {
    KGACC_ASSIGN_OR_RETURN(prior.valid, r->Bool());
    KGACC_ASSIGN_OR_RETURN(prior.tau, r->Double());
    KGACC_ASSIGN_OR_RETURN(prior.n, r->Double());
    KGACC_ASSIGN_OR_RETURN(prior.alpha, r->Double());
    KGACC_RETURN_IF_ERROR(LoadHpdResult(r, &prior.hpd));
    KGACC_ASSIGN_OR_RETURN(prior.has_hessian, r->Bool());
    for (double& h : prior.hessian) {
      KGACC_ASSIGN_OR_RETURN(h, r->Double());
    }
  }
  return Status::OK();
}

namespace {

/// Reduces per-prior HPD results (interval or error) to the final choice.
Result<AhpdChoice> ReduceCandidates(
    const std::vector<Result<HpdResult>>& results) {
  AhpdChoice choice;
  choice.candidates.reserve(results.size());
  double best_width = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return results[i].status();
    const HpdResult& hpd = *results[i];
    choice.candidates.push_back(hpd.interval);
    if (i == 0 || hpd.interval.Width() < best_width) {
      best_width = hpd.interval.Width();
      choice.interval = hpd.interval;
      choice.prior_index = i;
      choice.shape = hpd.shape;
    }
  }
  return choice;
}

}  // namespace

namespace {

/// A carried interval seeds the solvers whenever the previous solve was
/// the standard unimodal case. The posterior-mean safety gate that used to
/// guard against far-off starts (SLSQP could park merit-stationary in the
/// near-flat width valley) is gone: the SQP now requires KKT stationarity
/// to declare convergence, and the primary Newton path reports a basin
/// exit instead of stalling — so the carry is usable unconditionally.
bool CarryIsUsable(const AhpdWarmState::PriorState& state) {
  return state.valid && state.hpd.shape == BetaShape::kUnimodal;
}

}  // namespace

Result<HpdResult> HpdIntervalWarm(const BetaDistribution& posterior,
                                  double tau, double n, double alpha,
                                  const HpdOptions& options,
                                  AhpdWarmState::PriorState* state) {
  if (state == nullptr) return HpdInterval(posterior, alpha, options);
  if (state->valid && state->tau == tau && state->n == n &&
      state->alpha == alpha) {
    NoteHpdWarmCacheHit();
    // This call ran no solver: report zero marginal work. The interval,
    // path, certificate, and curvature are the cached solve's.
    HpdResult cached = state->hpd;
    cached.solver_iterations = 0;
    cached.cdf_evals = 0;
    cached.pdf_evals = 0;
    cached.quantile_evals = 0;
    return cached;
  }
  HpdOptions local = options;
  if (CarryIsUsable(*state)) {
    local.warm_start = &state->hpd.interval;
  }
  if (state->has_hessian) {
    local.warm_hessian = &state->hessian;
  }
  Result<HpdResult> result = HpdInterval(posterior, alpha, local);
  if (result.ok()) {
    state->valid = true;
    state->tau = tau;
    state->n = n;
    state->alpha = alpha;
    state->hpd = *result;
    // Keep the carried curvature across Newton-path steps (which build no
    // BFGS model); refresh it whenever an SQP ran.
    if (result->has_hessian) {
      state->has_hessian = true;
      state->hessian = result->hessian;
    }
  } else {
    state->valid = false;
    state->has_hessian = false;
  }
  return result;
}

Result<AhpdChoice> AhpdSelect(const std::vector<BetaPrior>& priors,
                              double tau, double n, double alpha,
                              const HpdOptions& options,
                              AhpdWarmState* warm) {
  if (priors.empty()) {
    return Status::InvalidArgument("aHPD requires at least one prior");
  }
  if (warm != nullptr) warm->Sync(priors.size());
  std::vector<Result<HpdResult>> results;
  results.reserve(priors.size());
  for (size_t i = 0; i < priors.size(); ++i) {
    const Result<BetaDistribution> posterior = priors[i].Posterior(tau, n);
    if (!posterior.ok()) return posterior.status();
    results.push_back(HpdIntervalWarm(*posterior, tau, n, alpha, options,
                                      warm ? &warm->priors[i] : nullptr));
  }
  return ReduceCandidates(results);
}

}  // namespace kgacc
