#include "robustness/perturbation.hpp"
#include "robustness/surface.hpp"
#include "robustness/yield.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "kinetics/photosynthesis_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "../numeric/stats.hpp"

namespace rmp::robustness {
namespace {

TEST(PerturbationTest, GlobalStaysWithinRelativeBand) {
  num::Rng rng(1);
  const num::Vec x{1.0, 10.0, 100.0};
  for (int t = 0; t < 500; ++t) {
    const num::Vec p = perturb_global(x, 0.1, rng);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(p[i], x[i] * 0.9 - 1e-12);
      EXPECT_LE(p[i], x[i] * 1.1 + 1e-12);
    }
  }
}

TEST(PerturbationTest, LocalChangesOnlyOneCoordinate) {
  num::Rng rng(2);
  const num::Vec x{1.0, 2.0, 3.0};
  for (int t = 0; t < 100; ++t) {
    const num::Vec p = perturb_local(x, 1, 0.1, rng);
    EXPECT_DOUBLE_EQ(p[0], 1.0);
    EXPECT_DOUBLE_EQ(p[2], 3.0);
    EXPECT_GE(p[1], 1.8 - 1e-12);
    EXPECT_LE(p[1], 2.2 + 1e-12);
  }
}

TEST(PerturbationTest, EnsembleSizesMatchPaper) {
  // Paper: 5x10^3 global trials; 200 local trials per enzyme.
  num::Rng rng(3);
  PerturbationConfig cfg;
  const num::Vec x(23, 1.0);
  EXPECT_EQ(global_ensemble(x, cfg, rng).size(), 5000u);
  EXPECT_EQ(local_ensemble(x, 0, cfg, rng).size(), 200u);
}

TEST(PerturbationTest, BoundsClampApplied) {
  num::Rng rng(4);
  PerturbationConfig cfg;
  cfg.max_relative = 0.5;
  cfg.lower = {0.95};
  cfg.upper = {1.05};
  cfg.global_trials = 200;
  const num::Vec x{1.0};
  for (const num::Vec& p : global_ensemble(x, cfg, rng)) {
    EXPECT_GE(p[0], 0.95);
    EXPECT_LE(p[0], 1.05);
  }
}

TEST(RhoTest, ThresholdSemantics) {
  // eq. 3: rho = 1 iff |f(x) - f(x*)| <= eps.
  EXPECT_TRUE(robustness_condition(10.0, 10.4, 0.5));
  EXPECT_TRUE(robustness_condition(10.0, 9.6, 0.5));
  EXPECT_FALSE(robustness_condition(10.0, 10.6, 0.5));
  EXPECT_TRUE(robustness_condition(10.0, 10.5, 0.5));  // boundary inclusive
}

TEST(YieldTest, ConstantFunctionIsFullyRobust) {
  const PropertyFn constant = [](std::span<const double>) { return 7.0; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 500;
  const YieldResult r = global_yield(num::Vec{1.0, 2.0}, constant, cfg);
  EXPECT_DOUBLE_EQ(r.gamma, 1.0);
  EXPECT_EQ(r.robust_trials, 500u);
  EXPECT_DOUBLE_EQ(r.nominal_value, 7.0);
}

TEST(YieldTest, HypersensitiveFunctionHasZeroYield) {
  // Any perturbation multiplies the output far beyond 5%.
  const PropertyFn sensitive = [](std::span<const double> x) {
    return std::exp(100.0 * (x[0] - 1.0));
  };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 500;
  const YieldResult r = global_yield(num::Vec{1.0}, sensitive, cfg);
  EXPECT_LT(r.gamma, 0.1);
}

TEST(YieldTest, LinearFunctionPartialYield) {
  // f = x: 10% perturbation, 5% threshold -> about half the trials robust.
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 4000;
  const YieldResult r = global_yield(num::Vec{1.0}, identity, cfg);
  EXPECT_NEAR(r.gamma, 0.5, 0.05);
}

TEST(YieldTest, EpsilonIsRelativeToNominal) {
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 100;
  const YieldResult r = global_yield(num::Vec{40.0}, identity, cfg);
  EXPECT_NEAR(r.absolute_threshold, 2.0, 1e-12);  // 5% of 40
}

TEST(YieldTest, LocalYieldIsolatesFragileVariable) {
  // Output depends violently on x0 and not at all on x1.
  const PropertyFn f = [](std::span<const double> x) {
    return std::exp(50.0 * (x[0] - 1.0)) + 0.0 * x[1];
  };
  YieldConfig cfg;
  cfg.perturbation.local_trials_per_variable = 400;
  const auto locals = local_yields(num::Vec{1.0, 1.0}, f, cfg);
  ASSERT_EQ(locals.size(), 2u);
  EXPECT_LT(locals[0].gamma, 0.2);
  EXPECT_DOUBLE_EQ(locals[1].gamma, 1.0);
}

TEST(YieldTest, DeterministicForSeed) {
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 300;
  cfg.seed = 17;
  const YieldResult a = global_yield(num::Vec{1.0}, identity, cfg);
  const YieldResult b = global_yield(num::Vec{1.0}, identity, cfg);
  EXPECT_EQ(a.robust_trials, b.robust_trials);
}

// Parameterized sweep over epsilon: yield must be monotone non-decreasing
// in the robustness threshold.
class YieldEpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(YieldEpsilonSweep, MonotoneInEpsilon) {
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig tight;
  tight.perturbation.global_trials = 1500;
  tight.epsilon_fraction = GetParam();
  YieldConfig loose = tight;
  loose.epsilon_fraction = GetParam() * 2.0;
  const double g_tight = global_yield(num::Vec{1.0}, identity, tight).gamma;
  const double g_loose = global_yield(num::Vec{1.0}, identity, loose).gamma;
  EXPECT_LE(g_tight, g_loose + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, YieldEpsilonSweep,
                         ::testing::Values(0.01, 0.02, 0.05, 0.08));

TEST(SurfaceTest, SamplesAlongFront) {
  pareto::Front front;
  for (int i = 0; i <= 20; ++i) {
    pareto::Individual ind;
    const double t = i / 20.0;
    ind.f = {t, 1.0 - t};
    ind.x = {t, 1.0};
    front.add(ind);
  }
  const PropertyFn f = [](std::span<const double> x) { return x[0]; };
  SurfaceConfig cfg;
  cfg.samples = 7;
  cfg.yield.perturbation.global_trials = 200;
  const auto surface = robustness_surface(front, f, cfg);
  EXPECT_GE(surface.size(), 5u);
  EXPECT_LE(surface.size(), 7u);
  for (const SurfacePoint& p : surface) {
    EXPECT_GE(p.gamma, 0.0);
    EXPECT_LE(p.gamma, 1.0);
    EXPECT_EQ(p.objectives.size(), 2u);
  }
}

TEST(PerturbationTest, LatinHypercubeStaysWithinBand) {
  num::Rng rng(21);
  PerturbationConfig cfg;
  cfg.scheme = SamplingScheme::kLatinHypercube;
  cfg.global_trials = 300;
  const num::Vec x{1.0, 10.0};
  for (const num::Vec& p : global_ensemble(x, cfg, rng)) {
    EXPECT_GE(p[0], 0.9 - 1e-12);
    EXPECT_LE(p[0], 1.1 + 1e-12);
    EXPECT_GE(p[1], 9.0 - 1e-12);
    EXPECT_LE(p[1], 11.0 + 1e-12);
  }
}

TEST(PerturbationTest, LatinHypercubeIsStratified) {
  // Exactly one sample per stratum along each coordinate.
  num::Rng rng(22);
  PerturbationConfig cfg;
  cfg.scheme = SamplingScheme::kLatinHypercube;
  cfg.global_trials = 50;
  const num::Vec x{1.0};
  const auto ensemble = global_ensemble(x, cfg, rng);
  std::vector<int> counts(50, 0);
  for (const num::Vec& p : ensemble) {
    const double u = (p[0] / 1.0 - 1.0) / 0.1;  // in [-1, 1]
    const auto stratum = static_cast<std::size_t>(
        std::min(49.0, std::max(0.0, (u + 1.0) / 2.0 * 50.0)));
    counts[stratum]++;
  }
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(YieldTest, LatinHypercubeLowersEstimatorVariance) {
  // Variance of the Gamma estimate across seeds should not be larger with
  // stratified sampling than with plain Monte-Carlo.
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  auto spread = [&](SamplingScheme scheme) {
    std::vector<double> gammas;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      YieldConfig cfg;
      cfg.perturbation.global_trials = 120;
      cfg.perturbation.scheme = scheme;
      cfg.seed = seed;
      gammas.push_back(global_yield(num::Vec{1.0}, identity, cfg).gamma);
    }
    return num::stddev(gammas);
  };
  EXPECT_LE(spread(SamplingScheme::kLatinHypercube),
            spread(SamplingScheme::kMonteCarlo) + 0.02);
}

TEST(SurfaceTest, EmptyFrontGivesEmptySurface) {
  const PropertyFn f = [](std::span<const double> x) { return x[0]; };
  EXPECT_TRUE(robustness_surface(pareto::Front{}, f, {}).empty());
}

/// FNV-1a over the bit patterns of `values`.
std::uint64_t bits_digest(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Evidence pin for the robustness schedule on the kinetic problem, whose
// warm pool makes the timing of every epoch commit observable in the last
// bits of the roots: the surface's gammas, then local_yields' per-variable
// results (gamma, nominal, threshold, worst deviation), bit for bit, plus
// the EvalStats after each stage.  The scenario and front were chosen so
// that committing after each pick's ensemble, or after each variable's,
// moves a digest.  Must hold at every width.
TEST(SurfaceTest, KineticSurfaceAndLocalYieldsArePinned) {
  for (const std::size_t threads : {1u, 4u}) {
    const kinetics::PhotosynthesisProblem problem(
        kinetics::make_model(*kinetics::scenario_by_label("present-high")));
    const PropertyFn uptake = [&problem](std::span<const double> x) {
      num::Vec f(problem.num_objectives());
      (void)problem.evaluate(x, f);
      return f[0];
    };
    pareto::Front front;
    num::Rng rng(3);
    for (int i = 0; i < 8; ++i) {
      pareto::Individual ind;
      ind.x.resize(problem.num_variables());
      for (double& v : ind.x) v = rng.uniform(0.8, 1.25);
      const double t = i / 7.0;
      ind.f = {t, 1.0 - t};
      front.add(ind);
    }
    SurfaceConfig cfg;
    cfg.samples = 4;
    cfg.threads = threads;
    cfg.yield.perturbation.global_trials = 6;
    cfg.yield.perturbation.local_trials_per_variable = 2;
    cfg.yield.threads = threads;
    cfg.yield.epoch_commit = [&problem] { problem.commit_epoch(); };

    const auto surface = robustness_surface(front, uptake, cfg);
    std::vector<double> gammas;
    for (const SurfacePoint& p : surface) gammas.push_back(p.gamma);
    const moo::EvalStats after_surface = problem.eval_stats();
    EXPECT_EQ(bits_digest(gammas), 0xc5a169b9740a91feULL) << "threads=" << threads;
    EXPECT_EQ(after_surface.pool_hits, 0u) << "threads=" << threads;
    EXPECT_EQ(after_surface.full_evaluations, 28u) << "threads=" << threads;

    const auto locals = local_yields(front[2].x, uptake, cfg.yield);
    std::vector<double> local_bits;
    for (const YieldResult& r : locals) {
      local_bits.insert(local_bits.end(), {r.gamma, r.nominal_value,
                                           r.absolute_threshold, r.max_deviation});
    }
    const moo::EvalStats after_locals = problem.eval_stats();
    EXPECT_EQ(bits_digest(local_bits), 0xc8baa2078c72a007ULL) << "threads=" << threads;
    EXPECT_EQ(after_locals.pool_hits, 0u) << "threads=" << threads;
    EXPECT_EQ(after_locals.full_evaluations, 75u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rmp::robustness
