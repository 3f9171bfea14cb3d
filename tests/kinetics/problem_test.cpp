#include "kinetics/photosynthesis_problem.hpp"

#include <gtest/gtest.h>

#include "kinetics/scenarios.hpp"
#include "numeric/vec.hpp"

namespace rmp::kinetics {
namespace {

std::shared_ptr<PhotosynthesisProblem> problem() {
  static std::shared_ptr<PhotosynthesisProblem> p =
      make_problem(figure2_scenario());
  return p;
}

TEST(PhotosynthesisProblemTest, Dimensions) {
  EXPECT_EQ(problem()->num_variables(), 23u);
  EXPECT_EQ(problem()->num_objectives(), 2u);
  EXPECT_EQ(problem()->lower_bounds().size(), 23u);
  EXPECT_EQ(problem()->upper_bounds().size(), 23u);
  EXPECT_GT(problem()->lower_bounds()[0], 0.0);
}

TEST(PhotosynthesisProblemTest, NaturalPartitionIsFeasible) {
  num::Vec x(kNumEnzymes, 1.0);
  num::Vec f(2);
  const double violation = problem()->evaluate(x, f);
  EXPECT_DOUBLE_EQ(violation, 0.0);
  const auto [uptake, nitrogen] = PhotosynthesisProblem::to_paper_units(f);
  EXPECT_NEAR(uptake, 15.486, 0.1 * 15.486);
  EXPECT_NEAR(nitrogen, 208330.0, 0.05 * 208330.0);

  // Outside a parallel region the root commits at once, so a repeat is the
  // pool's exact-key hit: same answer bitwise, counted as a pool hit, and
  // every evaluation is either a pool hit or a full solve.
  const moo::EvalStats before = problem()->eval_stats();
  num::Vec again(2);
  EXPECT_EQ(problem()->evaluate(x, again), violation);
  EXPECT_TRUE(num::bitwise_equal(f, again));
  const moo::EvalStats after = problem()->eval_stats();
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(after.full_evaluations, before.full_evaluations);
  EXPECT_EQ(after.evaluations, after.pool_hits + after.full_evaluations);
}

TEST(PhotosynthesisProblemTest, NitrogenObjectiveIndependentOfKinetics) {
  // f1 is pure bookkeeping: doubling every activity doubles nitrogen.
  num::Vec ones(kNumEnzymes, 1.0), twos(kNumEnzymes, 2.0);
  num::Vec f1(2), f2(2);
  (void)problem()->evaluate(ones, f1);
  (void)problem()->evaluate(twos, f2);
  EXPECT_NEAR(f2[1], 2.0 * f1[1], 1e-6 * f1[1]);
}

TEST(PhotosynthesisProblemTest, StarvedPartitionIsInfeasible) {
  num::Vec x(kNumEnzymes, 0.02);
  num::Vec f(2);
  const double violation = problem()->evaluate(x, f);
  EXPECT_GT(violation, 0.0);  // collapsed or below the alive threshold
}

TEST(PhotosynthesisProblemTest, SuggestInitialSeedsNatural) {
  num::Rng rng(1);
  std::vector<num::Vec> seeds(5);
  const std::size_t got = problem()->suggest_initial(seeds, rng);
  ASSERT_GE(got, 1u);
  EXPECT_EQ(seeds[0], num::Vec(kNumEnzymes, 1.0));
  for (std::size_t s = 1; s < got; ++s) {
    for (double v : seeds[s]) {
      EXPECT_GE(v, problem()->lower_bounds()[0]);
      EXPECT_LE(v, problem()->upper_bounds()[0]);
    }
  }
}

TEST(PhotosynthesisProblemTest, ToPaperUnitsFlipsUptakeSign) {
  const num::Vec f{-20.0, 1e5};
  const auto [uptake, nitrogen] = PhotosynthesisProblem::to_paper_units(f);
  EXPECT_DOUBLE_EQ(uptake, 20.0);
  EXPECT_DOUBLE_EQ(nitrogen, 1e5);
}

TEST(ScenarioTest, SixConditionsOfFigure1) {
  const auto scenarios = figure1_scenarios();
  EXPECT_EQ(scenarios.size(), 6u);
  int low = 0, high = 0;
  for (const Scenario& s : scenarios) {
    EXPECT_TRUE(s.ci_ppm == kCiPast || s.ci_ppm == kCiPresent || s.ci_ppm == kCiFuture);
    low += s.triose_export_vmax == kExportLow;
    high += s.triose_export_vmax == kExportHigh;
  }
  EXPECT_EQ(low, 3);
  EXPECT_EQ(high, 3);
}

TEST(ScenarioTest, TableAndFigureConditions) {
  EXPECT_EQ(table1_scenario().ci_ppm, kCiPresent);
  EXPECT_EQ(table1_scenario().triose_export_vmax, kExportHigh);
  EXPECT_EQ(figure2_scenario().ci_ppm, kCiPresent);
  EXPECT_EQ(figure2_scenario().triose_export_vmax, kExportLow);
}

TEST(ScenarioTest, LookupByCanonicalLabel) {
  EXPECT_EQ(all_scenarios().size(), 6u);
  for (const Scenario& s : all_scenarios()) {
    const Scenario* found = scenario_by_label(s.label);
    ASSERT_NE(found, nullptr) << s.label;
    EXPECT_EQ(found->ci_ppm, s.ci_ppm);
    EXPECT_EQ(found->triose_export_vmax, s.triose_export_vmax);
  }
  const Scenario* future_low = scenario_by_label("future-low");
  ASSERT_NE(future_low, nullptr);
  EXPECT_EQ(future_low->ci_ppm, kCiFuture);
  EXPECT_EQ(future_low->triose_export_vmax, kExportLow);
  EXPECT_EQ(scenario_by_label("mars-high"), nullptr);
  EXPECT_EQ(scenario_by_label(""), nullptr);
}

TEST(AciCurveTest, MonotoneThenSaturatingForNaturalLeaf) {
  const num::Vec ones(kNumEnzymes, 1.0);
  const num::Vec cis{150.0, 270.0, 420.0};
  const auto curve = aci_curve(ones, cis, kExportHigh);
  ASSERT_EQ(curve.size(), 3u);
  for (const AciPoint& p : curve) {
    EXPECT_TRUE(p.converged) << p.ci_ppm;
    EXPECT_GT(p.uptake, 0.0);
  }
  // Rising limb: more CO2, more assimilation at the low end.
  EXPECT_LT(curve[0].uptake, curve[1].uptake);
  // Saturation: the gain flattens (second increment smaller per ppm).
  const double slope_low =
      (curve[1].uptake - curve[0].uptake) / (cis[1] - cis[0]);
  const double slope_high =
      (curve[2].uptake - curve[1].uptake) / (cis[2] - cis[1]);
  EXPECT_LT(slope_high, slope_low + 0.05);
}

}  // namespace
}  // namespace rmp::kinetics
