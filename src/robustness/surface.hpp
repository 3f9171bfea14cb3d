// Robustness surface (Figure 3): sample points along a Pareto front, compute
// the global yield Gamma of each, and emit (objective_1, objective_2, Gamma)
// triples — the "Pareto-Surface" relating functional objectives to the
// inherent solution robustness.
#pragma once

#include <vector>

#include "pareto/front.hpp"
#include "robustness/yield.hpp"

namespace rmp::robustness {

struct SurfacePoint {
  num::Vec objectives;  ///< objective vector of the Pareto point (as stored)
  double gamma = 0.0;   ///< global yield of its decision vector
  std::size_t front_index = 0;
};

struct SurfaceConfig {
  YieldConfig yield;
  std::size_t samples = 50;  ///< equally-spaced picks along the front
  /// Width of the one batch that scores every sampled point's nominal and
  /// trials (0 = hardware concurrency, 1 = serial); `yield.threads` is not
  /// used here.  Results are identical for any value.
  std::size_t threads = 0;
};

/// Evaluates the robustness surface over `samples` equally-spaced Pareto
/// points (plus both extremes, which equal spacing always includes) as one
/// batch, followed by one epoch commit.
[[nodiscard]] std::vector<SurfacePoint> robustness_surface(const pareto::Front& front,
                                                           const PropertyFn& property,
                                                           const SurfaceConfig& cfg);

}  // namespace rmp::robustness
