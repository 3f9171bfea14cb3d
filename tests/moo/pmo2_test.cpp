#include "moo/pmo2.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "kinetics/photosynthesis_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/moead.hpp"
#include "moo/nsga2.hpp"
#include "moo/spea2.hpp"
#include "moo/testproblems.hpp"
#include "moo/topology.hpp"
#include "pareto/front.hpp"
#include "pareto/mining.hpp"

namespace rmp::moo {
namespace {

TEST(TopologyTest, AllToAllEdgeCount) {
  num::Rng rng(1);
  const auto edges = migration_edges(TopologyKind::kAllToAll, 4, rng);
  EXPECT_EQ(edges.size(), 12u);  // n (n-1)
}

TEST(TopologyTest, RingIsCycle) {
  num::Rng rng(1);
  const auto edges = migration_edges(TopologyKind::kRing, 5, rng);
  ASSERT_EQ(edges.size(), 5u);
  for (const auto& [from, to] : edges) {
    EXPECT_EQ(to, (from + 1) % 5);
  }
}

TEST(TopologyTest, StarCentersOnHub) {
  num::Rng rng(1);
  const auto edges = migration_edges(TopologyKind::kStar, 4, rng);
  EXPECT_EQ(edges.size(), 6u);  // 2 per spoke
  for (const auto& [from, to] : edges) {
    EXPECT_TRUE(from == 0 || to == 0);
  }
}

TEST(TopologyTest, RandomRespectsDegree) {
  num::Rng rng(1);
  const auto edges = migration_edges(TopologyKind::kRandom, 6, rng, 2);
  EXPECT_EQ(edges.size(), 12u);
  for (const auto& [from, to] : edges) EXPECT_NE(from, to);
}

TEST(TopologyTest, SingleIslandNoEdges) {
  num::Rng rng(1);
  EXPECT_TRUE(migration_edges(TopologyKind::kAllToAll, 1, rng).empty());
  EXPECT_TRUE(migration_edges(TopologyKind::kRing, 1, rng).empty());
}

TEST(TopologyTest, EdgesArriveInCanonicalOrder) {
  // The (from, to)-sorted ordering is the fixed application order of a
  // migration epoch — the determinism contract in moo/pmo2.hpp depends on it.
  num::Rng rng(1);
  for (const auto kind : {TopologyKind::kAllToAll, TopologyKind::kRing,
                          TopologyKind::kStar, TopologyKind::kRandom}) {
    const auto edges = migration_edges(kind, 5, rng, 2);
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end())) << to_string(kind);
  }
}

TEST(Pmo2Test, PaperConfigurationRuns) {
  // The paper's adopted configuration (scaled down): two NSGA-II islands,
  // broadcast migration, probability 0.5.
  const Zdt1 problem(10);
  Pmo2Options o;
  o.islands = 2;
  o.generations = 30;
  o.migration_interval = 10;
  o.migration_probability = 0.5;
  o.topology = TopologyKind::kAllToAll;
  o.seed = 99;
  Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(20));
  pmo2.run();
  EXPECT_EQ(pmo2.num_islands(), 2u);
  EXPECT_GT(pmo2.archive().size(), 10u);
  // 2 islands x 20 pop x (1 init + 30 gens)
  EXPECT_EQ(pmo2.evaluations(), 2u * 20u * 31u);
}

TEST(Pmo2Test, MigrationHappensAtInterval) {
  const Zdt1 problem(8);
  Pmo2Options o;
  o.islands = 2;
  o.generations = 40;
  o.migration_interval = 10;
  o.migration_probability = 1.0;  // deterministic
  Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(12));
  pmo2.run();
  // 4 migration events x 2 edges (all-to-all between 2 islands)
  EXPECT_EQ(pmo2.migrations_performed(), 8u);
}

TEST(Pmo2Test, NoMigrationWhenProbabilityZero) {
  const Zdt1 problem(8);
  Pmo2Options o;
  o.islands = 2;
  o.generations = 20;
  o.migration_interval = 5;
  o.migration_probability = 0.0;
  Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(12));
  pmo2.run();
  EXPECT_EQ(pmo2.migrations_performed(), 0u);
}

TEST(Pmo2Test, ArchiveIsNondominatedAndConverges) {
  const Zdt1 problem(12);
  Pmo2Options o;
  o.islands = 2;
  o.generations = 80;
  o.migration_interval = 20;
  o.seed = 7;
  Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(40));
  pmo2.run();

  double err = 0.0;
  for (const Individual& m : pmo2.archive().solutions()) {
    err += std::fabs(m.f[1] - (1.0 - std::sqrt(m.f[0])));
  }
  err /= static_cast<double>(pmo2.archive().size());
  EXPECT_LT(err, 0.1);
}

TEST(Pmo2Test, HeterogeneousIslands) {
  const Zdt1 problem(8);
  Pmo2Options o;
  o.islands = 2;
  o.generations = 15;
  Pmo2::AlgorithmFactory factory = [](const Problem& p, std::uint64_t seed,
                                      std::size_t island) -> std::unique_ptr<Optimizer> {
    if (island == 0) {
      Nsga2Options no;
      no.population_size = 16;
      no.seed = seed;
      return std::make_unique<Nsga2>(p, no);
    }
    MoeadOptions mo;
    mo.population_size = 16;
    mo.seed = seed;
    return std::make_unique<Moead>(p, mo);
  };
  Pmo2 pmo2(problem, o, factory);
  pmo2.run();
  EXPECT_EQ(pmo2.island(0).name(), "NSGA-II");
  EXPECT_EQ(pmo2.island(1).name(), "MOEA/D");
  EXPECT_FALSE(pmo2.archive().empty());
}

TEST(Pmo2Test, ObserverSeesEveryGeneration) {
  const Zdt1 problem(6);
  Pmo2Options o;
  o.islands = 2;
  o.generations = 12;
  Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(10));
  std::size_t calls = 0;
  pmo2.run([&](std::size_t gen, const Pmo2& state) {
    ++calls;
    EXPECT_EQ(gen, calls);
    EXPECT_GE(state.archive().size(), 1u);
  });
  EXPECT_EQ(calls, 12u);
}

TEST(Pmo2Test, StepwiseApiMatchesGenerationCount) {
  const Zdt1 problem(6);
  Pmo2Options o;
  o.islands = 3;
  o.topology = TopologyKind::kRing;
  Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(10));
  pmo2.initialize();
  EXPECT_EQ(pmo2.generation(), 0u);
  pmo2.step();
  pmo2.step();
  EXPECT_EQ(pmo2.generation(), 2u);
}

TEST(Pmo2Test, DeterministicForSeed) {
  const Zdt3 problem(8);
  Pmo2Options o;
  o.islands = 2;
  o.generations = 10;
  o.seed = 123;
  Pmo2 a(problem, o, Pmo2::default_nsga2_factory(12));
  Pmo2 b(problem, o, Pmo2::default_nsga2_factory(12));
  a.run();
  b.run();
  ASSERT_EQ(a.archive().size(), b.archive().size());
}

// The archipelago determinism contract: the archive — and everything mined
// from it — is bit-identical for any island_threads.  This extends the
// tests/core/parallel_test.cpp thread-invariance checks from one batch to
// the whole system: concurrent island tasks, epoch barriers, migration.
TEST(Pmo2Test, ArchiveBitIdenticalAcrossIslandThreads) {
  const Zdt3 problem(10);

  struct RunOutput {
    std::vector<Individual> archive;
    std::uint64_t fingerprint = 0;
    std::size_t ideal_index = 0;
    std::vector<std::size_t> shadow_indices;
  };
  auto run = [&](std::size_t island_threads) {
    Pmo2Options o;
    o.islands = 4;
    o.generations = 20;
    o.migration_interval = 5;
    o.migration_probability = 0.5;
    o.seed = 321;
    o.island_threads = island_threads;
    Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(16));
    pmo2.run();
    RunOutput out;
    out.archive.assign(pmo2.archive().solutions().begin(),
                       pmo2.archive().solutions().end());
    out.fingerprint = pmo2.archive().fingerprint();
    const auto front = pareto::Front::from_population(pmo2.archive().solutions());
    out.ideal_index = pareto::closest_to_ideal(front);
    out.shadow_indices = pareto::shadow_minima(front);
    return out;
  };

  const RunOutput reference = run(1);
  ASSERT_FALSE(reference.archive.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const RunOutput other = run(threads);
    EXPECT_EQ(other.fingerprint, reference.fingerprint) << "threads=" << threads;
    ASSERT_EQ(other.archive.size(), reference.archive.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < reference.archive.size(); ++i) {
      ASSERT_EQ(other.archive[i].x.size(), reference.archive[i].x.size());
      for (std::size_t v = 0; v < reference.archive[i].x.size(); ++v)
        EXPECT_EQ(other.archive[i].x[v], reference.archive[i].x[v]);
      ASSERT_EQ(other.archive[i].f.size(), reference.archive[i].f.size());
      for (std::size_t j = 0; j < reference.archive[i].f.size(); ++j)
        EXPECT_EQ(other.archive[i].f[j], reference.archive[i].f[j]);
    }
    // Mined candidates select identically on identical archives.
    EXPECT_EQ(other.ideal_index, reference.ideal_index);
    EXPECT_EQ(other.shadow_indices, reference.shadow_indices);
  }
}

// Minimal instrumented island: one resident whose x encodes the island
// index, a step that proposes nothing and changes nothing, and an inject()
// that records where each immigrant came from (immigrants keep the source
// island's x) and absorbs it into the population.  Residents are mutually
// non-dominated across islands (f = (i, -i)), so every island's front is its
// whole population.
class RecordingAlgorithm final : public Optimizer {
 public:
  RecordingAlgorithm(const Problem& problem, std::size_t index,
                     std::vector<std::pair<std::size_t, std::size_t>>* log)
      : Optimizer(problem, 1), index_(index), log_(log) {}

  std::span<Individual> propose(bool, std::size_t) override { return {}; }
  bool absorb(bool initial, std::size_t) override {
    if (!initial) return true;
    Individual self;
    self.x = num::Vec{static_cast<double>(index_)};
    self.f = num::Vec{static_cast<double>(index_), -static_cast<double>(index_)};
    pop_.assign(1, self);
    return true;
  }
  [[nodiscard]] std::span<const Individual> population() const override {
    return pop_;
  }
  void inject(std::span<const Individual> immigrants) override {
    for (const Individual& m : immigrants) {
      log_->emplace_back(static_cast<std::size_t>(m.x[0]), index_);
      pop_.push_back(m);
    }
  }
  [[nodiscard]] std::size_t evaluations() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "recording"; }

 private:
  std::size_t index_;
  std::vector<std::pair<std::size_t, std::size_t>>* log_;
  std::vector<Individual> pop_;
};

// Migration epochs apply edges in canonical (from, to) order and select
// migrants from the epoch snapshot: edge (1, 0) must export island 1's own
// candidate even though edge (0, 1) already delivered island 0's candidate
// into island 1 earlier in the same epoch.
TEST(Pmo2Test, MigrationEpochAppliesEdgesInCanonicalOrderFromSnapshot) {
  const Zdt1 problem(4);  // unused by the mock islands
  std::vector<std::pair<std::size_t, std::size_t>> log;
  Pmo2Options o;
  o.islands = 3;
  o.topology = TopologyKind::kStar;
  o.migration_interval = 1;
  o.migration_probability = 1.0;
  o.migrants_per_edge = 1;
  Pmo2 pmo2(problem, o,
            [&log](const Problem& p, std::uint64_t, std::size_t island) {
              return std::make_unique<RecordingAlgorithm>(p, island, &log);
            });
  pmo2.initialize();
  pmo2.step();

  // Star over 3 islands enumerates (0,1),(1,0),(0,2),(2,0); the canonical
  // epoch order is (0,1),(0,2),(1,0),(2,0).  Snapshot selection means each
  // edge carries the source island's original resident (x = source index).
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 1}, {0, 2}, {1, 0}, {2, 0}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(pmo2.migrations_performed(), 4u);
}

/// Island that throws on its second step; used to prove the strong
/// exception guarantee on committed state.
class ThrowingAlgorithm final : public Optimizer {
 public:
  ThrowingAlgorithm(const Problem& problem, std::size_t index)
      : Optimizer(problem, 1), index_(index) {}

  std::span<Individual> propose(bool initial, std::size_t) override {
    if (initial) return {};
    if (index_ == 1 && ++steps_ == 2) throw std::runtime_error("island failure");
    // A successful step produces a new, strictly better point that WOULD
    // enter the archive if the epoch were (incorrectly) committed.
    pop_[0].f[0] -= 1.0;
    pop_[0].f[1] -= 1.0;
    return {};
  }
  bool absorb(bool initial, std::size_t) override {
    if (initial) {
      Individual self;
      self.x = num::Vec{static_cast<double>(index_)};
      self.f = num::Vec{static_cast<double>(index_), -static_cast<double>(index_)};
      pop_.assign(1, self);
      steps_ = 0;
    }
    return true;
  }
  [[nodiscard]] std::span<const Individual> population() const override {
    return pop_;
  }
  void inject(std::span<const Individual>) override {}
  [[nodiscard]] std::size_t evaluations() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "throwing"; }

 private:
  std::size_t index_;
  std::size_t steps_ = 0;
  std::vector<Individual> pop_;
};

TEST(Pmo2Test, StepLeavesCommittedStateUntouchedWhenAnIslandThrows) {
  const Zdt1 problem(4);  // unused by the mock islands
  Pmo2Options o;
  o.islands = 2;
  o.migration_interval = 1;
  o.migration_probability = 1.0;
  o.island_threads = 1;  // deterministic schedule: island 0 advances first
  Pmo2 pmo2(problem, o, [](const Problem& p, std::uint64_t, std::size_t island) {
    return std::make_unique<ThrowingAlgorithm>(p, island);
  });
  pmo2.initialize();
  pmo2.step();  // both islands step cleanly

  const std::uint64_t fingerprint = pmo2.archive().fingerprint();
  const std::size_t generation = pmo2.generation();
  const std::size_t migrations = pmo2.migrations_performed();

  // Island 0 advances (its staged population improves) before island 1
  // throws — yet nothing committed may change: no partial archive merge, no
  // generation bump, no migration bookkeeping.
  EXPECT_THROW(pmo2.step(), std::runtime_error);
  EXPECT_EQ(pmo2.archive().fingerprint(), fingerprint);
  EXPECT_EQ(pmo2.generation(), generation);
  EXPECT_EQ(pmo2.migrations_performed(), migrations);

  // initialize() restarts the run after a failure.
  pmo2.initialize();
  EXPECT_EQ(pmo2.generation(), 0u);
  EXPECT_EQ(pmo2.archive().size(), 2u);
}

// Evidence pin for the evaluation schedule: a kinetic archipelago with one
// island of each engine.  The kinetic problem's warm pool makes the timing
// of every epoch commit observable in the last bits of the roots, so this
// fingerprint and these EvalStats move if any island's evaluations start
// reading a different pool snapshot (the scenario and seed were chosen so
// that committing after every MOEA/D child instead of once per epoch moves
// both).  Recorded before the islands' evaluations were merged into one
// batch per round; must hold at every width.
TEST(Pmo2Test, MixedEngineKineticArchipelagoIsPinned) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const kinetics::PhotosynthesisProblem problem(
        kinetics::make_model(*kinetics::scenario_by_label("future-low")));
    Pmo2Options o;
    o.islands = 3;
    o.migration_interval = 2;
    o.migrants_per_edge = 2;
    o.seed = 5;
    o.island_threads = threads;
    Pmo2 pmo2(problem, o,
              [](const Problem& p, std::uint64_t seed,
                 std::size_t island) -> std::unique_ptr<Optimizer> {
                if (island == 0) {
                  Nsga2Options no;
                  no.population_size = 8;
                  no.seed = seed;
                  return std::make_unique<Nsga2>(p, no);
                }
                if (island == 1) {
                  Spea2Options so;
                  so.population_size = 8;
                  so.archive_size = 8;
                  so.seed = seed;
                  return std::make_unique<Spea2>(p, so);
                }
                MoeadOptions mo;
                mo.population_size = 8;
                mo.seed = seed;
                return std::make_unique<Moead>(p, mo);
              });
    pmo2.run(3);
    const EvalStats stats = problem.eval_stats();
    EXPECT_EQ(pmo2.archive().fingerprint(), 0xf63d2887ab147994ULL)
        << "threads=" << threads;
    EXPECT_EQ(stats.evaluations, 96u) << "threads=" << threads;
    EXPECT_EQ(stats.pool_hits, 1u) << "threads=" << threads;
    EXPECT_EQ(stats.full_evaluations, 95u) << "threads=" << threads;
  }
}

// Parameterized topology sweep: every topology must complete and archive.
class Pmo2TopologyTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(Pmo2TopologyTest, RunsToCompletion) {
  const Zdt1 problem(8);
  Pmo2Options o;
  o.islands = 4;
  o.generations = 10;
  o.migration_interval = 3;
  o.topology = GetParam();
  Pmo2 pmo2(problem, o, Pmo2::default_nsga2_factory(10));
  pmo2.run();
  EXPECT_GT(pmo2.archive().size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, Pmo2TopologyTest,
                         ::testing::Values(TopologyKind::kAllToAll, TopologyKind::kRing,
                                           TopologyKind::kStar, TopologyKind::kRandom));

}  // namespace
}  // namespace rmp::moo
