#include "kgacc/eval/cost_model.h"

namespace kgacc {

double AnnotationCostSeconds(const CostModel& model,
                             uint64_t distinct_entities,
                             uint64_t distinct_triples) {
  const double entities = static_cast<double>(distinct_entities);
  const double triples = static_cast<double>(distinct_triples);
  return entities * model.entity_identification_seconds +
         triples * model.fact_verification_seconds *
             static_cast<double>(model.annotators_per_triple);
}

double AnnotationCostSeconds(const CostModel& model,
                             const AnnotatedSample& sample) {
  return AnnotationCostSeconds(model, sample.num_distinct_entities(),
                               sample.num_distinct_triples());
}

}  // namespace kgacc
