#include "moo/nsga2.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "moo/dominance.hpp"

namespace rmp::moo {

Nsga2::Nsga2(const Problem& problem, Nsga2Options options)
    : Optimizer(problem, options.eval_threads), opts_(options), rng_(options.seed) {
  // The mating loop pairs parents, so the population must be even.  Odd
  // sizes used to be bumped up silently, which made every downstream count
  // (evaluations, fronts, budget math) off by one with no trace — reject
  // loudly instead.
  if (opts_.population_size < 4 || opts_.population_size % 2 != 0) {
    throw std::invalid_argument(
        "Nsga2: population_size must be even and >= 4 (pairwise mating), got " +
        std::to_string(opts_.population_size));
  }
}

std::span<Individual> Nsga2::propose(bool initial, std::size_t /*round*/) {
  const auto lo = problem_.lower_bounds();
  const auto hi = problem_.upper_bounds();
  offspring_.clear();
  if (initial) {
    // Problem-suggested seeds (e.g. the natural leaf partition) first.
    const auto max_seeded = static_cast<std::size_t>(
        opts_.seeded_fraction * static_cast<double>(opts_.population_size));
    if (max_seeded > 0) {
      std::vector<num::Vec> seeds(max_seeded);
      const std::size_t got = problem_.suggest_initial(seeds, rng_);
      for (std::size_t s = 0; s < got; ++s) {
        Individual ind;
        ind.x = std::move(seeds[s]);
        ind.x.resize(problem_.num_variables());
        num::clamp_inplace(ind.x, lo, hi);
        offspring_.push_back(std::move(ind));
      }
    }
    while (offspring_.size() < opts_.population_size) {
      offspring_.push_back(random_individual(rng_));
    }
    return offspring_;
  }

  num::Vec c1, c2;
  for (std::size_t pair = 0; pair < opts_.population_size / 2; ++pair) {
    const Individual& p1 = pop_[binary_tournament(pop_, rng_)];
    const Individual& p2 = pop_[binary_tournament(pop_, rng_)];
    sbx_crossover(p1.x, p2.x, lo, hi, opts_.variation.crossover_probability,
                  opts_.variation.crossover_eta, rng_, c1, c2);
    offspring_.push_back(mutated_child(c1, opts_.variation, rng_));
    offspring_.push_back(mutated_child(c2, opts_.variation, rng_));
  }
  return offspring_;
}

bool Nsga2::absorb(bool initial, std::size_t /*round*/) {
  evaluations_ = (initial ? 0 : evaluations_) + offspring_.size();
  if (initial) {
    pop_ = std::move(offspring_);
    const auto fronts = fast_nondominated_sort(pop_);
    for (const auto& front : fronts) assign_crowding_distance(pop_, front);
    return true;
  }
  // Parents carry their scores; the offspring follow them.
  std::vector<Individual> merged;
  merged.reserve(2 * opts_.population_size);
  merged = pop_;
  for (Individual& ind : offspring_) merged.push_back(std::move(ind));
  select_survivors(merged);
  return true;
}

void Nsga2::select_survivors(std::vector<Individual>& merged) {
  const auto fronts = fast_nondominated_sort(merged);
  for (const auto& front : fronts) assign_crowding_distance(merged, front);

  std::vector<Individual> next;
  next.reserve(opts_.population_size);
  for (const auto& front : fronts) {
    if (next.size() + front.size() <= opts_.population_size) {
      for (std::size_t idx : front) next.push_back(std::move(merged[idx]));
    } else {
      std::vector<std::size_t> sorted(front.begin(), front.end());
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return merged[a].crowding > merged[b].crowding;
      });
      for (std::size_t idx : sorted) {
        if (next.size() == opts_.population_size) break;
        next.push_back(std::move(merged[idx]));
      }
    }
    if (next.size() == opts_.population_size) break;
  }
  pop_ = std::move(next);
}

void Nsga2::inject(std::span<const Individual> immigrants) {
  if (immigrants.empty() || pop_.empty()) return;

  // Replace the crowded-comparison-worst residents with the immigrants.
  std::vector<std::size_t> order(pop_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return crowded_less(pop_[a], pop_[b]);  // best first
  });

  const std::size_t count = std::min(immigrants.size(), pop_.size());
  for (std::size_t k = 0; k < count; ++k) {
    pop_[order[order.size() - 1 - k]] = immigrants[k];
  }

  const auto fronts = fast_nondominated_sort(pop_);
  for (const auto& front : fronts) assign_crowding_distance(pop_, front);
}

void Nsga2::save_state(core::Json& out) const {
  out.set("engine", "nsga2");
  out.set("rng", state::rng_to_json(rng_));
  out.set("population", state::population_to_json(pop_));
  out.set("evaluations", static_cast<std::uint64_t>(evaluations_));
}

void Nsga2::load_state(const core::Json& doc) {
  state::require_tag(doc, "engine", "nsga2");
  std::vector<Individual> pop =
      state::population_from_json(state::require(doc, "population"));
  if (pop.size() != opts_.population_size) {
    throw StateError("checkpoint: nsga2 population size " +
                     std::to_string(pop.size()) + " != configured " +
                     std::to_string(opts_.population_size));
  }
  for (const Individual& ind : pop) {
    if (ind.x.size() != problem_.num_variables() ||
        ind.f.size() != problem_.num_objectives()) {
      throw StateError("checkpoint: nsga2 individual dimensions do not match "
                       "the constructed problem");
    }
  }
  state::rng_from_json(state::require(doc, "rng"), rng_);
  evaluations_ = state::require(doc, "evaluations").as_size();
  pop_ = std::move(pop);
}

}  // namespace rmp::moo
