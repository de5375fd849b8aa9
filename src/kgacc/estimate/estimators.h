#ifndef KGACC_ESTIMATE_ESTIMATORS_H_
#define KGACC_ESTIMATE_ESTIMATORS_H_

#include <span>
#include <vector>

#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/util/status.h"

/// \file estimators.h
/// Unbiased point estimators of the KG accuracy mu and their estimated
/// variances (§2.4), computed in one pass over the annotated units. An
/// audit estimates from the streaming `EstimatorAccumulator` instead; these
/// batch functions are the reference implementation it is tested against.

namespace kgacc {

/// A point estimate of the KG accuracy with its sampling uncertainty.
struct AccuracyEstimate {
  /// Point estimate of mu.
  double mu = 0.0;
  /// Estimated variance of the estimator.
  double variance = 0.0;
  /// Annotated triples n_S backing the estimate.
  uint64_t n = 0;
  /// Correct annotations tau_S.
  uint64_t tau = 0;
  /// First-stage units (clusters for cluster designs, triples for SRS).
  uint64_t num_units = 0;
  /// Population size N when a finite-population correction was applied;
  /// 0 otherwise. Interval constructors use it to inflate the effective
  /// sample as the census nears.
  uint64_t population = 0;
};

/// Sample proportion under SRS (Eq. 2):
///   mu = tau_S / n_S,  V = mu (1 - mu) / n_S.
///
/// When `population_size` is nonzero the variance carries the finite-
/// population correction (1 - n/N) of without-replacement sampling; this
/// is what makes the interval "reach zero width when the sample is
/// equivalent to G" (§2.2). Leave it 0 for with-replacement designs.
Result<AccuracyEstimate> EstimateSrs(std::span<const AnnotatedUnit> units,
                                     uint64_t population_size = 0);

/// Mean of estimated cluster accuracies under PPS cluster designs
/// (TWCS/WCS, Eq. 3):
///   mu = (1/n_C) sum mu_i,  V = sum (mu_i - mu)^2 / (n_C (n_C - 1)).
/// Requires at least two first-stage units for the variance; with a single
/// unit the variance is conservatively reported as mu may take (0.25 / n).
Result<AccuracyEstimate> EstimateCluster(std::span<const AnnotatedUnit> units);

/// Ratio estimator for *uniform* whole-cluster sampling (RCS):
///   mu = sum tau_i / sum M_i, with the standard linearized ratio variance.
/// Consistent (slightly biased in small samples); what `RcsSampler`
/// advertises (`EstimatorKind::kRcs`) and the additional-designs appendix
/// experiments use.
Result<AccuracyEstimate> EstimateRcs(std::span<const AnnotatedUnit> units);

/// Stratified estimator: mu = sum_h W_h mu_h with
/// V = sum_h W_h^2 mu_h (1 - mu_h) / n_h. `stratum_weights` are the
/// population shares W_h (summing to 1); units carry their stratum index.
/// Strata not yet observed contribute their weight at the pooled mean with
/// the worst-case Bernoulli variance, keeping early iterations conservative.
Result<AccuracyEstimate> EstimateStratified(
    std::span<const AnnotatedUnit> units,
    const std::vector<double>& stratum_weights);

/// Dispatches on the estimator family advertised by the sampler (kSrs,
/// kCluster, kRcs, or kStratified).
/// `stratum_weights` is required for kStratified and ignored otherwise.
Result<AccuracyEstimate> Estimate(
    EstimatorKind kind, std::span<const AnnotatedUnit> units,
    const std::vector<double>* stratum_weights = nullptr);

}  // namespace kgacc

#endif  // KGACC_ESTIMATE_ESTIMATORS_H_
