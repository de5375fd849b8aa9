#ifndef KGACC_EVAL_COST_MODEL_H_
#define KGACC_EVAL_COST_MODEL_H_

#include "kgacc/sampling/sample.h"

/// \file cost_model.h
/// The annotation cost function of Eq. 12 (Gao et al., adopted by the
/// paper): cost(G_S) = |E_S| * c1 + |T_S| * c2, where identifying an entity
/// (c1 = 45 s) is paid once per *distinct* entity and verifying a fact
/// (c2 = 25 s) once per *distinct* triple. This is what makes cluster
/// sampling cheaper per annotated triple than SRS.

namespace kgacc {

/// Per-action average manual effort, in seconds.
struct CostModel {
  /// c1: linking an entity to its real-world concept.
  double entity_identification_seconds = 45.0;
  /// c2: collecting evidence and auditing one fact.
  double fact_verification_seconds = 25.0;
  /// Judgments collected per triple (multi-annotator protocols multiply the
  /// verification effort; 1 reproduces the paper's single-annotator cost).
  int annotators_per_triple = 1;
};

/// Total manual effort, in seconds, for |E_S| = `distinct_entities` and
/// |T_S| = `distinct_triples`: the charge reads only the sizes of the two
/// distinct sets.
double AnnotationCostSeconds(const CostModel& model,
                             uint64_t distinct_entities,
                             uint64_t distinct_triples);

/// Total manual effort for `sample` in seconds.
double AnnotationCostSeconds(const CostModel& model,
                             const AnnotatedSample& sample);

}  // namespace kgacc

#endif  // KGACC_EVAL_COST_MODEL_H_
