// The unified Optimizer interface — every search engine in the tree speaks
// it: the single-population engines (NSGA-II, SPEA2, MOEA/D) and the PMO2
// archipelago itself, which both *hosts* Optimizers as islands and *is* one
// (its population() is the global archive view).  One polymorphic seam means
// heterogeneous island factories, the AlgorithmRegistry (src/api/registry.hpp)
// and the spec-driven run API all compose any engine with any problem.
//
// Contract
// --------
//   * initialize() builds and evaluates the initial population.  Must be
//     called once before step(); calling it again starts a fresh run of the
//     same configuration.  The engine's RNG stream is NOT rewound — a
//     restarted run is an independent replicate, not a replay; construct a
//     new instance (as api::run does) to reproduce a run bit-exactly.
//   * step() advances by one generation.
//   * Both run rounds of propose() (variation, on the engine's own RNG) ->
//     core::evaluate_batch -> Problem::commit_epoch -> absorb() (selection).
//     Pmo2 drives its islands' rounds as one batch per round instead.
//   * Exception safety (the PR-2 contract, required of every implementation):
//     a step() that throws must leave all state observable through this
//     interface — population(), evaluations(), and for archive-bearing
//     engines the archived front — exactly as it was before the call, so an
//     Observer can never see a partially committed generation.  Pmo2
//     additionally documents how its epoch barrier realizes the strong
//     guarantee (moo/pmo2.hpp); the single-population engines satisfy it by
//     evaluating offspring into scratch storage before any commit.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "moo/individual.hpp"
#include "moo/operators.hpp"
#include "moo/problem.hpp"
#include "moo/state.hpp"

namespace rmp::moo {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Invoked by run() after every generation with a fully committed state
  /// (gen is 1-based).  For Pmo2 "committed" means the epoch barrier has
  /// completed: archive merged and migration (if due) applied.
  using Observer = std::function<void(std::size_t gen, const Optimizer& state)>;

  /// Builds and evaluates the initial population.  Must be called once
  /// before step(); repeated calls restart the run as an independent
  /// replicate (the RNG stream is not rewound — see the contract above).
  void initialize() { run_rounds(true); }

  /// Advances by one generation.  See the exception-safety contract above.
  void step() { run_rounds(false); }

  /// Variation half of round `round` of initialize() (`initial`) or step():
  /// the round's unevaluated candidates, in engine storage valid until the
  /// matching absorb().  Round 0 starts a new generation.
  virtual std::span<Individual> propose(bool initial, std::size_t round) = 0;

  /// Selection half: takes the scored round into the engine's state and
  /// counts its evaluations.  True when the generation is complete, false
  /// when the next proposal depends on this round.  Never commits the
  /// problem's epoch — whoever runs the rounds owns that barrier.
  virtual bool absorb(bool initial, std::size_t round) = 0;

  /// Current population (valid after initialize()).  Archive-bearing engines
  /// (SPEA2, PMO2) expose their result archive here.
  [[nodiscard]] virtual std::span<const Individual> population() const = 0;

  /// True when population() is a cumulative non-dominated archive over the
  /// whole run (PMO2) rather than one generation's working set — drivers
  /// that maintain their own run archive can then merge the view once at
  /// the end instead of every generation.
  [[nodiscard]] virtual bool population_is_archive() const { return false; }

  /// Installs immigrant candidates, displacing the worst residents.
  virtual void inject(std::span<const Individual> immigrants) = 0;

  /// Total problem evaluations consumed so far.
  [[nodiscard]] virtual std::size_t evaluations() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Serializes the engine's complete run state into `out` (an object the
  /// caller owns): population(s), RNG stream positions, evaluation counters
  /// — everything a freshly constructed engine of the same configuration
  /// needs to continue the run bit-exactly.  Must only be called at an epoch
  /// boundary (after a committed step(), never mid-step).  Engines without
  /// checkpoint support throw StateError — resumability is opt-in, and a
  /// silently empty checkpoint would masquerade as a restartable run.
  virtual void save_state(core::Json& /*out*/) const {
    throw StateError(name() + " does not support save_state");
  }

  /// Restores a save_state() document into this engine, replacing
  /// initialize(): construct with the same configuration, then load_state()
  /// instead of initialize(), then step() continues the original run.
  /// Throws StateError when the document was saved by a different engine
  /// kind or does not match the constructed configuration.
  virtual void load_state(const core::Json& /*doc*/) {
    throw StateError(name() + " does not support load_state");
  }

  /// Runs initialize() + `generations` steps, invoking `observer` after each
  /// committed generation — the per-generation hook that lets Pmo2 keep its
  /// epoch callback when driven through the base interface.
  void run(std::size_t generations, const Observer& observer = nullptr) {
    initialize();
    for (std::size_t g = 1; g <= generations; ++g) {
      step();
      if (observer) observer(g, *this);
    }
  }

 protected:
  /// The rounds evaluate on `problem` at width `eval_threads`.  Without
  /// `commit_each_round` the problem's epoch commits once, after the last
  /// round, instead of after every round.
  Optimizer(const Problem& problem, std::size_t eval_threads,
            bool commit_each_round = true)
      : problem_(problem),
        eval_threads_(eval_threads),
        commit_each_round_(commit_each_round) {}

  /// A uniform random point of the problem's box, repaired and clamped.
  [[nodiscard]] Individual random_individual(num::Rng& rng) const {
    const auto lo = problem_.lower_bounds();
    const auto hi = problem_.upper_bounds();
    Individual ind;
    ind.x.resize(lo.size());
    for (std::size_t v = 0; v < lo.size(); ++v) ind.x[v] = rng.uniform(lo[v], hi[v]);
    problem_.repair(ind.x);
    num::clamp_inplace(ind.x, lo, hi);
    return ind;
  }

  /// A crossover child finished by polynomial mutation, repair and clamping.
  [[nodiscard]] Individual mutated_child(const num::Vec& x, const VariationParams& v,
                                         num::Rng& rng) const {
    const auto lo = problem_.lower_bounds();
    const auto hi = problem_.upper_bounds();
    Individual ind;
    ind.x = x;
    polynomial_mutation(ind.x, lo, hi, v.mutation_probability, v.mutation_eta, rng);
    problem_.repair(ind.x);
    num::clamp_inplace(ind.x, lo, hi);
    return ind;
  }

  const Problem& problem_;

 private:
  void run_rounds(bool initial) {
    bool done = false;
    for (std::size_t round = 0; !done; ++round) {
      core::evaluate_batch(problem_, propose(initial, round), eval_threads_);
      if (commit_each_round_) problem_.commit_epoch();
      done = absorb(initial, round);
    }
    if (!commit_each_round_) problem_.commit_epoch();
  }

  std::size_t eval_threads_;
  bool commit_each_round_;
};

}  // namespace rmp::moo
