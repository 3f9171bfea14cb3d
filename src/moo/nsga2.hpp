// NSGA-II (Deb, Pratap, Agarwal, Meyarivan, IEEE TEC 2002) with Deb's
// constrained-domination rule — the engine the paper runs on every PMO2
// island.
#pragma once

#include <span>

#include "moo/algorithm.hpp"
#include "moo/operators.hpp"
#include "numeric/rng.hpp"

namespace rmp::moo {

struct Nsga2Options {
  /// Must be even and >= 4 (the mating loop pairs parents); the constructor
  /// throws std::invalid_argument otherwise — no silent rounding.
  std::size_t population_size = 100;
  VariationParams variation;
  std::uint64_t seed = 1;
  /// Fraction of the initial population taken from Problem::suggest_initial.
  double seeded_fraction = 0.1;
  /// Width of each generation's batch when the engine runs standalone (0 =
  /// hardware concurrency, 1 = serial; results are identical for any value).
  /// Unused on a Pmo2 island: the archipelago batches every island at once.
  std::size_t eval_threads = 0;
};

class Nsga2 final : public Optimizer {
 public:
  Nsga2(const Problem& problem, Nsga2Options options);

  /// One round per generation: offspring, then survivor selection.
  std::span<Individual> propose(bool initial, std::size_t round) override;
  bool absorb(bool initial, std::size_t round) override;
  [[nodiscard]] std::span<const Individual> population() const override {
    return pop_;
  }
  void inject(std::span<const Individual> immigrants) override;
  [[nodiscard]] std::size_t evaluations() const override { return evaluations_; }
  [[nodiscard]] std::string name() const override { return "NSGA-II"; }

  /// Serializes rng + population + evaluations.  The population keeps its
  /// rank/crowding fields: binary tournaments read them between steps and
  /// crowding was computed over the merged 2N pool of the previous
  /// generation, so it is NOT re-derivable from the survivors.
  void save_state(core::Json& out) const override;
  void load_state(const core::Json& doc) override;

 private:
  /// Environmental selection: sorts `merged` and keeps the best
  /// population_size individuals into pop_.
  void select_survivors(std::vector<Individual>& merged);

  Nsga2Options opts_;
  num::Rng rng_;
  std::vector<Individual> pop_;
  std::vector<Individual> offspring_;  ///< the proposed round, scored in place
  std::size_t evaluations_ = 0;
};

}  // namespace rmp::moo
