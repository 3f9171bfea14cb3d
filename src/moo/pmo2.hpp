// PMO2 — Parallel Multi-Objective Optimization (the paper's contribution).
//
// An archipelago of islands, each evolving its own population with its own
// algorithm instance (NSGA-II by default, heterogeneous engines allowed),
// periodically exchanging candidate solutions along a topology.  The paper's
// adopted configuration — reproduced by Pmo2Options defaults — is:
//   two islands, two distinct NSGA-II instances, migration every 200
//   generations, all-to-all (broadcast) scheme, migration probability 0.5.
// A global non-dominated archive accumulates every island's population; its
// content is the Pareto front the paper analyses and mines.
//
// Concurrency and determinism contract
// ------------------------------------
// A generation runs in evaluation rounds (moo/algorithm.hpp).  In each round
// every island still in the generation proposes, serially and in index
// order, on its private RNG stream — the island_index-th splitmix64 output
// rooted at the run seed; the archipelago scores all proposals as ONE
// core::evaluate_batch of width `Pmo2Options::island_threads`; the islands
// absorb in index order.  NSGA-II and SPEA2 take one round, MOEA/D one per
// child.  Evaluation never touches an RNG, so the width cannot change an
// answer.
//
// Every generation ends at an epoch barrier where shared state is committed
// serially in a fixed order:
//   1. archive merge — islands offer their populations in island-index
//      order (identical to the serial schedule);
//   2. migration (on migration epochs) — migration_edges() returns the
//      canonical (from, to)-sorted edge list, the migration RNG stream is
//      consumed in exactly that order, migrants are selected from the epoch
//      snapshot of every source population (an edge never re-exports
//      candidates that arrived earlier in the same epoch), then injected in
//      the same canonical order;
//   3. the problem's epoch commit (the kinetic warm-start pool), once, after
//      the last round, by the outermost archipelago.
// The archive (and the whole run) is therefore bit-identical for any
// island_threads value; parallelism trades wall-clock only.  Enforced by
// tests/moo/pmo2_test.cpp and by bench/pmo2_scaling (BENCH_pmo2.json).
//
// Exception safety: step() offers the strong guarantee on all committed
// state.  The archive, generation counter and migration bookkeeping are only
// touched after every island's last round.  If an island or an evaluation
// throws, the exception propagates with the committed state unchanged — an
// Observer can never see a partially-updated epoch.  Island-internal
// populations may still have advanced; call initialize() to restart the run
// after a failure.
#pragma once

#include <functional>
#include <memory>

#include "moo/algorithm.hpp"
#include "moo/archive.hpp"
#include "moo/topology.hpp"
#include "numeric/rng.hpp"

namespace rmp::moo {

struct Pmo2Options {
  std::size_t islands = 2;
  std::size_t generations = 1000;          ///< generations per island
  std::size_t migration_interval = 200;    ///< generations between migrations
  double migration_probability = 0.5;      ///< per-edge chance a migration happens
  std::size_t migrants_per_edge = 5;       ///< candidates copied along one edge
  TopologyKind topology = TopologyKind::kAllToAll;
  std::size_t random_topology_degree = 1;  ///< out-degree for TopologyKind::kRandom
  std::size_t archive_capacity = 0;        ///< 0 = unbounded
  std::uint64_t seed = 7;
  /// Width of each round's batch, which holds every island's proposals
  /// (0 = one thread per hardware context, 1 = serial).  The archive is
  /// bit-identical for any value — see the determinism contract above.
  std::size_t island_threads = 0;
};

/// PMO2 is itself an Optimizer: population() exposes the global archive
/// view, inject() spreads immigrants across the islands round-robin, and the
/// base-class run(generations, observer) drives whole epochs — so the
/// archipelago composes through the same polymorphic seam as the engines it
/// hosts (registry lookups, nested archipelagos, spec-driven runs).
class Pmo2 final : public Optimizer {
 public:
  /// Builds the algorithm for one island; island_index allows "different
  /// settings of the same optimization algorithm" per the paper.  The seed
  /// passed in is the island's private stream — the island_index-th
  /// splitmix64 output rooted at options.seed — so island streams do not
  /// depend on construction order, never alias across nearby run seeds,
  /// and are independent of the migration stream.
  using AlgorithmFactory = std::function<std::unique_ptr<Optimizer>(
      const Problem& problem, std::uint64_t seed, std::size_t island_index)>;

  /// Observer invoked after every generation (gen is 1-based), always with a
  /// fully-committed epoch: archive merged, migration (if due) applied.
  /// This is the Pmo2-typed convenience flavour; the inherited
  /// Optimizer::run(generations, observer) delivers the same committed-epoch
  /// callback through the base interface.
  using Observer = std::function<void(std::size_t gen, const Pmo2& state)>;

  /// Default factory: NSGA-II with 100 individuals per island.
  [[nodiscard]] static AlgorithmFactory default_nsga2_factory(
      std::size_t population_per_island = 100);

  Pmo2(const Problem& problem, Pmo2Options options,
       AlgorithmFactory factory = nullptr);

  /// Full run over options.generations: initialize all islands, evolve,
  /// migrate, archive.  The inherited run(generations, observer) overload
  /// does the same under a caller-chosen budget.
  void run(const Observer& observer = nullptr);
  using Optimizer::run;

  /// One round over every island still in the generation, in island-index
  /// order; absorb() ends the last round with the epoch barrier.
  std::span<Individual> propose(bool initial, std::size_t round) override;
  bool absorb(bool initial, std::size_t round) override;
  [[nodiscard]] std::size_t generation() const { return generation_; }

  /// The global archive view — what the paper reports as the algorithm's
  /// Pareto front.  Identical contents to archive().solutions().
  [[nodiscard]] std::span<const Individual> population() const override {
    return archive_.solutions();
  }

  /// The view above is the cumulative run archive, not a working set.
  [[nodiscard]] bool population_is_archive() const override { return true; }

  /// Distributes immigrants across the islands round-robin (immigrant k goes
  /// to island k mod num_islands) and offers them to the global archive —
  /// deterministic, so archipelagos composing archipelagos stay reproducible.
  void inject(std::span<const Individual> immigrants) override;

  [[nodiscard]] std::string name() const override { return "PMO2"; }

  /// Recursive checkpoint: the migration RNG stream, epoch index, migration
  /// counter, the global archive (fingerprint cross-checked on load) and
  /// every island engine's own save_state, in island-index order.  Must be
  /// called at an epoch boundary (after a committed step()).
  void save_state(core::Json& out) const override;

  /// Restores into freshly constructed islands (same factory, same spec),
  /// replacing initialize(); step() then continues the original run —
  /// bit-exactly, for any island_threads value, because all serialized
  /// state moves only at the serial barriers.
  void load_state(const core::Json& doc) override;

  [[nodiscard]] const Archive& archive() const { return archive_; }
  [[nodiscard]] std::size_t evaluations() const override;
  [[nodiscard]] std::size_t num_islands() const { return islands_.size(); }
  [[nodiscard]] const Optimizer& island(std::size_t i) const { return *islands_[i]; }
  [[nodiscard]] std::size_t migrations_performed() const { return migrations_; }

 private:
  void migrate();

  Pmo2Options opts_;
  num::Rng rng_;  ///< migration stream (edge draws, migrant picks) — barrier-only
  std::vector<std::unique_ptr<Optimizer>> islands_;
  std::vector<std::size_t> active_;  ///< islands still in this generation
  std::vector<Individual> batch_;    ///< this round's proposals, all islands
  std::vector<std::span<Individual>> parts_;  ///< where each part came from
  Archive archive_;
  std::size_t generation_ = 0;
  std::size_t migrations_ = 0;
};

}  // namespace rmp::moo
