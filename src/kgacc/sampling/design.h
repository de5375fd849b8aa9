#ifndef KGACC_SAMPLING_DESIGN_H_
#define KGACC_SAMPLING_DESIGN_H_

#include <memory>
#include <string>

#include "kgacc/sampling/sampler.h"
#include "kgacc/util/status.h"

/// \file design.h
/// The sampling-design vocabulary shared by the `kgacc_audit` CLI and the
/// `kgaccd` protocol: "srs", "twcs", "wcs", "rcs", "ssrs", "sys".

namespace kgacc {

/// Builds the sampler for `design` over `kg` (which must outlive it) with
/// default batch sizes; `twcs_m` is TWCS's second-stage size, and
/// `without_replacement` switches SRS to exact without-replacement draws.
/// InvalidArgument for an unknown design.
Result<std::unique_ptr<Sampler>> MakeSamplerForDesign(
    const KgView& kg, const std::string& design, int twcs_m,
    bool without_replacement = false);

}  // namespace kgacc

#endif  // KGACC_SAMPLING_DESIGN_H_
