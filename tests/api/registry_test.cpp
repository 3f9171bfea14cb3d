// Problem/optimizer registries: every registered name constructs and
// evaluates, references parse strictly, and parameters reach the instances.
#include "api/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"
#include "numeric/vec.hpp"

namespace rmp::api {
namespace {

TEST(ParseRefTest, SplitsNameAndParams) {
  const ParsedRef plain = parse_ref("zdt1");
  EXPECT_EQ(plain.name, "zdt1");
  EXPECT_TRUE(plain.params.empty());

  const ParsedRef full = parse_ref("pmo2?islands=4&topology=ring");
  EXPECT_EQ(full.name, "pmo2");
  ASSERT_EQ(full.params.size(), 2u);
  EXPECT_EQ(full.params.at("islands"), "4");
  EXPECT_EQ(full.params.at("topology"), "ring");

  EXPECT_TRUE(parse_ref("zdt1?").params.empty());  // empty tail allowed
}

TEST(ParseRefTest, RejectsMalformedReferences) {
  EXPECT_THROW((void)parse_ref(""), SpecError);
  EXPECT_THROW((void)parse_ref("?n=3"), SpecError);          // empty name
  EXPECT_THROW((void)parse_ref("zdt1?n"), SpecError);        // missing '='
  EXPECT_THROW((void)parse_ref("zdt1?n="), SpecError);       // empty value
  EXPECT_THROW((void)parse_ref("zdt1?=3"), SpecError);       // empty key
  EXPECT_THROW((void)parse_ref("zdt1?n=3&n=4"), SpecError);  // duplicate key
}

TEST(ParamTest, TypedAccessorsValidate) {
  const ParamMap p{{"n", "12"}, {"p", "0.5"}, {"flag", "1"}, {"s", "ring"}};
  EXPECT_EQ(param_size(p, "n", 0), 12u);
  EXPECT_EQ(param_size(p, "absent", 7), 7u);
  EXPECT_DOUBLE_EQ(param_double(p, "p", 0.0), 0.5);
  EXPECT_TRUE(param_bool(p, "flag", false));
  EXPECT_EQ(param_string(p, "s", ""), "ring");
  EXPECT_THROW((void)param_size(p, "p", 0), SpecError);    // "0.5" not integral
  EXPECT_THROW((void)param_double(p, "s", 0.0), SpecError);
  EXPECT_THROW((void)param_bool(p, "s", false), SpecError);
  // Non-finite and hex-float spellings are rejected (every knob is finite).
  const ParamMap weird{{"a", "nan"}, {"b", "inf"}, {"c", "0x1"}};
  EXPECT_THROW((void)param_double(weird, "a", 0.0), SpecError);
  EXPECT_THROW((void)param_double(weird, "b", 0.0), SpecError);
  EXPECT_THROW((void)param_double(weird, "c", 0.0), SpecError);
}

// The acceptance criterion: every registered problem (>= 8, spanning the
// analytic suite, the photosynthesis scenarios and Geobacter) constructs
// from its bare name and evaluates a mid-box point.
TEST(ProblemRegistryTest, EveryRegisteredNameConstructsAndEvaluates) {
  const auto listing = ProblemRegistry::global().list();
  EXPECT_GE(listing.size(), 8u);
  for (const auto& [name, summary] : listing) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(summary.empty());
    const std::shared_ptr<moo::Problem> problem =
        ProblemRegistry::global().make(name);
    ASSERT_NE(problem, nullptr);
    ASSERT_GE(problem->num_variables(), 1u);
    ASSERT_GE(problem->num_objectives(), 2u);

    const auto lo = problem->lower_bounds();
    const auto hi = problem->upper_bounds();
    num::Vec x(problem->num_variables());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.5 * (lo[i] + hi[i]);
    num::Vec f(problem->num_objectives());
    const double violation = problem->evaluate(x, f);
    EXPECT_GE(violation, 0.0);
    for (const double v : f) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ProblemRegistryTest, CoversAllThreeFamilies) {
  const auto& reg = ProblemRegistry::global();
  EXPECT_TRUE(reg.contains("zdt1"));           // analytic
  EXPECT_TRUE(reg.contains("photosynthesis"));  // kinetic scenarios
  EXPECT_TRUE(reg.contains("geobacter"));       // FBA
}

TEST(ProblemRegistryTest, ParametersReachTheInstance) {
  const auto zdt1 = ProblemRegistry::global().make("zdt1?n=5");
  EXPECT_EQ(zdt1->num_variables(), 5u);
  const auto dtlz2 = ProblemRegistry::global().make("dtlz2?n=7&m=4");
  EXPECT_EQ(dtlz2->num_variables(), 7u);
  EXPECT_EQ(dtlz2->num_objectives(), 4u);
  const auto photo = ProblemRegistry::global().make("photosynthesis?scenario=past-low");
  EXPECT_NE(photo->name().find("165"), std::string::npos);  // Ci=165 scenario
}

TEST(ProblemRegistryTest, RejectsUnknownNamesScenariosAndParams) {
  const auto& reg = ProblemRegistry::global();
  EXPECT_THROW((void)reg.make("zdt9"), SpecError);
  EXPECT_THROW((void)reg.make("zdt1?vars=3"), SpecError);      // unknown key
  EXPECT_THROW((void)reg.make("zdt1?n=1"), SpecError);         // below minimum
  EXPECT_THROW((void)reg.make("schaffer?n=3"), SpecError);     // takes none
  EXPECT_THROW((void)reg.make("photosynthesis?scenario=mars"), SpecError);
  EXPECT_THROW((void)reg.make("dtlz2?m=1"), SpecError);
}

TEST(ProblemRegistryTest, RemovedPhotosynthesisKeysAreRejectedByName) {
  // The limit-cycle shooting switch, its prescreen radius and the tangent
  // prescreen's margin and trust radius no longer exist; a stale spec
  // naming them must fail loudly, not be reinterpreted.
  const auto& reg = ProblemRegistry::global();
  const std::pair<std::string, std::string> cases[] = {
      {"shooting", "on"},
      {"cycle_prescreen_radius2", "0.25"},
      {"prescreen_margin", "2"},
      {"prescreen_radius2", "1"}};
  for (const auto& [key, value] : cases) {
    const std::string ref = "photosynthesis?" + key + "=" + value;
    try {
      (void)reg.make(ref);
      ADD_FAILURE() << ref << " was accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown parameter \"" + key + "\""),
                std::string::npos)
          << "actual error: " << e.what();
    }
  }
}

TEST(OptimizerRegistryTest, EveryRegisteredNameConstructsAndSteps) {
  const auto listing = OptimizerRegistry::global().list();
  ASSERT_GE(listing.size(), 4u);
  const moo::Zdt1 problem(6);
  for (const auto& [name, summary] : listing) {
    SCOPED_TRACE(name);
    auto optimizer = OptimizerRegistry::global().make(
        name + "?population=12", problem, OptimizerContext{5, 1});
    ASSERT_NE(optimizer, nullptr);
    optimizer->run(2);
    EXPECT_GT(optimizer->evaluations(), 0u);
    EXPECT_FALSE(optimizer->population().empty());
    EXPECT_FALSE(optimizer->name().empty());
  }
}

TEST(OptimizerRegistryTest, ExpectedEnginesAreRegistered) {
  const auto& reg = OptimizerRegistry::global();
  for (const char* name : {"nsga2", "spea2", "moead", "pmo2"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
}

TEST(OptimizerRegistryTest, HeterogeneousIslandsViaEnginesParam) {
  const moo::Zdt1 problem(6);
  auto optimizer = OptimizerRegistry::global().make(
      "pmo2?islands=2&population=10&engines=nsga2,spea2", problem,
      OptimizerContext{5, 1});
  auto* pmo2 = dynamic_cast<moo::Pmo2*>(optimizer.get());
  ASSERT_NE(pmo2, nullptr);
  EXPECT_EQ(pmo2->island(0).name(), "NSGA-II");
  EXPECT_EQ(pmo2->island(1).name(), "SPEA2");
  optimizer->run(2);
  EXPECT_GT(optimizer->evaluations(), 0u);
}

TEST(OptimizerRegistryTest, RejectsUnknownNamesAndParams) {
  const moo::Zdt1 problem(6);
  const OptimizerContext ctx{5, 1};
  const auto& reg = OptimizerRegistry::global();
  EXPECT_THROW((void)reg.make("sgd", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("nsga2?pop=10", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?topology=mesh", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?engines=sgd", problem, ctx), SpecError);
  // A trailing comma is a malformed engine list, not a shorter one.
  EXPECT_THROW((void)reg.make("pmo2?engines=nsga2,spea2,", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("moead?scalarization=max", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?migration_probability=nan", problem, ctx),
               SpecError);
}

TEST(OptimizerRegistryTest, RejectsOddNsga2Population) {
  // NSGA-II's mating loop pairs parents; an odd population used to be bumped
  // to even silently.  The spec layer now rejects it with the field named,
  // both for a direct nsga2 run and for pmo2's default NSGA-II islands.
  const moo::Zdt1 problem(6);
  const OptimizerContext ctx{5, 1};
  const auto& reg = OptimizerRegistry::global();
  EXPECT_THROW((void)reg.make("nsga2?population=31", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("nsga2?population=2", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?population=31", problem, ctx), SpecError);
  // An explicit engines list validates at island construction, but still
  // through the registry's nsga2 factory — the caller sees SpecError, not a
  // bare std::invalid_argument escaping from deep inside Pmo2.
  EXPECT_THROW((void)reg.make("pmo2?engines=nsga2&population=31", problem, ctx),
               SpecError);
  // Even populations still construct.
  EXPECT_NE(reg.make("nsga2?population=32", problem, ctx), nullptr);
  EXPECT_NE(reg.make("pmo2?population=32&islands=2", problem, ctx), nullptr);
}

TEST(OptimizerRegistryTest, ValidateChecksKeysWithoutConstructing) {
  ProblemRegistry::global().validate("geobacter?repair=0");   // no network built
  OptimizerRegistry::global().validate("pmo2?islands=4&engines=nsga2");
  EXPECT_THROW(ProblemRegistry::global().validate("geobacter?repairs=0"), SpecError);
  EXPECT_THROW(OptimizerRegistry::global().validate("pmo2?islnds=4"), SpecError);
  EXPECT_THROW(OptimizerRegistry::global().validate("sgd"), SpecError);
}

}  // namespace
}  // namespace rmp::api
