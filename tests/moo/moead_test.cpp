#include "moo/moead.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "kinetics/photosynthesis_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/archive.hpp"
#include "moo/dominance.hpp"
#include "moo/testproblems.hpp"

namespace rmp::moo {
namespace {

TEST(MoeadTest, InitializeBuildsSubproblems) {
  const Zdt1 problem(10);
  MoeadOptions o;
  o.population_size = 24;
  Moead alg(problem, o);
  alg.initialize();
  EXPECT_EQ(alg.population().size(), 24u);
  EXPECT_EQ(alg.evaluations(), 24u);
}

TEST(MoeadTest, ScalarCostUsesIdealPoint) {
  const Zdt1 problem(6);
  MoeadOptions o;
  o.population_size = 10;
  Moead alg(problem, o);
  alg.initialize();
  // Far from the ideal point, Tchebycheff cost is monotone: a vector that is
  // worse in every objective (and above the ideal) costs more.
  const num::Vec worse{60.0, 60.0};
  const num::Vec better{50.0, 50.0};
  for (std::size_t sp = 0; sp < 10; ++sp) {
    EXPECT_LE(alg.scalar_cost(better, 0.0, sp), alg.scalar_cost(worse, 0.0, sp) + 1e-12);
  }
}

TEST(MoeadTest, ViolationPenalized) {
  const Zdt1 problem(6);
  MoeadOptions o;
  o.population_size = 10;
  Moead alg(problem, o);
  alg.initialize();
  const num::Vec f{0.5, 0.5};
  EXPECT_GT(alg.scalar_cost(f, 1.0, 0), alg.scalar_cost(f, 0.0, 0));
}

TEST(MoeadTest, ImprovesZdt1) {
  const Zdt1 problem(12);
  MoeadOptions o;
  o.population_size = 60;
  o.seed = 21;
  Moead alg(problem, o);
  alg.initialize();

  auto front_error = [&]() {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i : nondominated_indices(alg.population())) {
      acc += std::fabs(alg.population()[i].f[1] -
                       (1.0 - std::sqrt(alg.population()[i].f[0])));
      ++n;
    }
    return n ? acc / static_cast<double>(n) : 1e9;
  };

  const double initial = front_error();
  for (int g = 0; g < 150; ++g) alg.step();
  EXPECT_LT(front_error(), initial / 5.0);
}

TEST(MoeadTest, WeightedSumVariantRuns) {
  const Zdt1 problem(8);
  MoeadOptions o;
  o.population_size = 20;
  o.scalarization = Scalarization::kWeightedSum;
  Moead alg(problem, o);
  alg.run(20);
  for (const Individual& ind : alg.population()) {
    EXPECT_TRUE(num::all_finite(ind.f));
  }
}

TEST(MoeadTest, ThreeObjectiveWeightLattice) {
  const Dtlz2 problem(10, 3);
  MoeadOptions o;
  o.population_size = 36;
  Moead alg(problem, o);
  alg.run(30);
  EXPECT_EQ(alg.population().size(), 36u);
  // DTLZ2 optimum satisfies sum f_i^2 = 1; population should approach it.
  double mean_norm = 0.0;
  for (const Individual& ind : alg.population()) {
    mean_norm += num::norm2(ind.f);
  }
  mean_norm /= static_cast<double>(alg.population().size());
  EXPECT_LT(mean_norm, 1.6);
  EXPECT_GT(mean_norm, 0.9);
}

TEST(MoeadTest, DeterministicForSeed) {
  const Zdt3 problem(8);
  MoeadOptions o;
  o.population_size = 16;
  o.seed = 5;
  Moead a(problem, o), b(problem, o);
  a.run(8);
  b.run(8);
  for (std::size_t i = 0; i < a.population().size(); ++i) {
    EXPECT_EQ(a.population()[i].x, b.population()[i].x);
  }
}

TEST(MoeadTest, InjectAcceptsImprovingImmigrant) {
  const Zdt1 problem(6);
  MoeadOptions o;
  o.population_size = 10;
  o.seed = 8;
  Moead alg(problem, o);
  alg.initialize();

  Individual imm;
  imm.x.assign(6, 0.0);
  imm.f.assign(2, 0.0);
  imm.violation = problem.evaluate(imm.x, imm.f);

  // The global optimum improves every subproblem; inject several copies so
  // at least one random slot accepts it.
  std::vector<Individual> immigrants(10, imm);
  alg.inject(immigrants);
  bool found = false;
  for (const Individual& ind : alg.population()) {
    if (ind.x == imm.x) found = true;
  }
  EXPECT_TRUE(found);
}

// Evidence pin for the evaluation schedule of a standalone run: outside an
// archipelago the kinetic warm pool commits after every child, so each
// child warm-starts from the roots of the children before it.  The
// fingerprint and EvalStats move if that commit timing does (the scenario
// and seed were chosen so that committing once per generation moves both).
// Must hold at every evaluation width.
TEST(MoeadTest, KineticRunIsPinned) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const kinetics::PhotosynthesisProblem problem(
        kinetics::make_model(*kinetics::scenario_by_label("past-low")));
    MoeadOptions o;
    o.population_size = 12;
    o.seed = 6;
    o.eval_threads = threads;
    Moead alg(problem, o);
    alg.run(4);
    Archive archive;
    archive.offer_all(alg.population());
    const EvalStats stats = problem.eval_stats();
    EXPECT_EQ(archive.fingerprint(), 0xd54def87c81e31b5ULL) << "threads=" << threads;
    EXPECT_EQ(stats.evaluations, 60u) << "threads=" << threads;
    EXPECT_EQ(stats.pool_hits, 2u) << "threads=" << threads;
    EXPECT_EQ(stats.full_evaluations, 58u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rmp::moo
