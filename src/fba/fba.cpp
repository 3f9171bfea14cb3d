#include "fba/fba.hpp"

#include <cassert>

namespace rmp::fba {

namespace {

num::LpProblem build_lp(const MetabolicNetwork& network, num::Vec objective) {
  const num::SparseMatrix s = network.stoichiometric_matrix();
  num::Vec rhs(s.rows(), 0.0);
  return num::LpProblem::from_sparse(s, std::move(rhs), std::move(objective),
                                     network.lower_bounds(), network.upper_bounds());
}

}  // namespace

FbaResult run_fba(const MetabolicNetwork& network,
                  const std::string& objective_reaction_id) {
  const auto idx = network.reaction_index(objective_reaction_id);
  assert(idx.has_value());
  num::Vec objective(network.num_reactions(), 0.0);
  objective[*idx] = 1.0;
  return run_fba(network, objective);
}

FbaResult run_fba(const MetabolicNetwork& network, const num::Vec& objective_weights) {
  assert(objective_weights.size() == network.num_reactions());
  const num::LpProblem lp = build_lp(network, objective_weights);
  const num::LpSolution sol = num::solve_lp(lp);
  FbaResult r;
  r.status = sol.status;
  r.fluxes = sol.x;
  r.objective_value = sol.objective_value;
  return r;
}

}  // namespace rmp::fba
