#include "kgacc/sampling/design.h"

#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"

namespace kgacc {

Result<std::unique_ptr<Sampler>> MakeSamplerForDesign(
    const KgView& kg, const std::string& design, int twcs_m,
    bool without_replacement) {
  if (design == "srs") {
    return std::unique_ptr<Sampler>(std::make_unique<SrsSampler>(
        kg, SrsConfig{.without_replacement = without_replacement}));
  }
  if (design == "twcs") {
    return std::unique_ptr<Sampler>(std::make_unique<TwcsSampler>(
        kg, TwcsConfig{.second_stage_size = twcs_m}));
  }
  if (design == "wcs") {
    return std::unique_ptr<Sampler>(
        std::make_unique<WcsSampler>(kg, ClusterConfig{}));
  }
  if (design == "rcs") {
    return std::unique_ptr<Sampler>(
        std::make_unique<RcsSampler>(kg, ClusterConfig{}));
  }
  if (design == "ssrs") {
    return std::unique_ptr<Sampler>(
        std::make_unique<StratifiedSampler>(kg, StratifiedConfig{}));
  }
  if (design == "sys") {
    return std::unique_ptr<Sampler>(
        std::make_unique<SystematicSampler>(kg, SystematicConfig{}));
  }
  return Status::InvalidArgument("unknown sampling design: " + design);
}

}  // namespace kgacc
