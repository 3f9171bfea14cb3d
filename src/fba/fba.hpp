// Flux Balance Analysis on a MetabolicNetwork:
//   maximize c^T v  s.t.  S v = 0,  lb <= v <= ub  (LP)
#pragma once

#include <string>

#include "fba/network.hpp"
#include "numeric/simplex.hpp"

namespace rmp::fba {

struct FbaResult {
  num::LpStatus status = num::LpStatus::kIterationLimit;
  num::Vec fluxes;
  double objective_value = 0.0;

  [[nodiscard]] bool optimal() const { return status == num::LpStatus::kOptimal; }
};

/// FBA maximizing a single reaction's flux.
[[nodiscard]] FbaResult run_fba(const MetabolicNetwork& network,
                                const std::string& objective_reaction_id);

/// FBA maximizing an arbitrary linear combination of fluxes.
[[nodiscard]] FbaResult run_fba(const MetabolicNetwork& network,
                                const num::Vec& objective_weights);

}  // namespace rmp::fba
