#include "kgacc/intervals/ahpd.h"

#include "kgacc/util/codec.h"

namespace kgacc {

void SaveAhpdWarmState(const AhpdWarmState& state, ByteWriter* w) {
  w->PutVarint(state.priors.size());
  for (const AhpdWarmState::PriorState& prior : state.priors) {
    w->PutBool(prior.valid);
    w->PutDouble(prior.interval.lower);
    w->PutDouble(prior.interval.upper);
  }
}

Status LoadAhpdWarmState(ByteReader* r, AhpdWarmState* state) {
  // One prior encodes to a flag and two doubles.
  KGACC_ASSIGN_OR_RETURN(const uint64_t count, r->Count(1 + 2 * 8));
  state->priors.assign(count, AhpdWarmState::PriorState{});
  for (AhpdWarmState::PriorState& prior : state->priors) {
    KGACC_ASSIGN_OR_RETURN(prior.valid, r->Bool());
    KGACC_ASSIGN_OR_RETURN(prior.interval.lower, r->Double());
    KGACC_ASSIGN_OR_RETURN(prior.interval.upper, r->Double());
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

Result<HpdResult> HpdIntervalWarm(const BetaDistribution& posterior,
                                  double alpha, const HpdOptions& options,
                                  AhpdWarmState::PriorState* state) {
  if (state == nullptr) return HpdInterval(posterior, alpha, options);
  HpdOptions local = options;
  if (state->valid) local.warm_start = &state->interval;
  Result<HpdResult> result = HpdInterval(posterior, alpha, local);
  // Closed-form (limiting-shape) intervals touch 0 or 1 and seed nothing.
  state->valid = result.ok() && result->shape == BetaShape::kUnimodal;
  if (state->valid) state->interval = result->interval;
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
    results.push_back(HpdIntervalWarm(*posterior, alpha, options,
                                      warm ? &warm->priors[i] : nullptr));
  }
  return ReduceCandidates(results);
}

}  // namespace kgacc
