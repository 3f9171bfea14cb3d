#include "kinetics/c3model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "kinetics/photosynthesis_problem.hpp"
#include "kinetics/scenarios.hpp"

namespace rmp::kinetics {
namespace {

/// Shared models (constructing one solves the natural steady state).
const C3Model& present_low() {
  static const C3Model model(C3Config{});  // defaults: Ci=270, export=1
  return model;
}

const C3Model& present_high() {
  static const C3Model model = [] {
    C3Config c;
    c.triose_export_vmax = kExportHigh;
    return C3Model(c);
  }();
  return model;
}

TEST(C3ModelTest, NaturalStateConverges) {
  const SteadyState& nat = present_low().natural_state();
  ASSERT_TRUE(nat.converged);
  EXPECT_LT(nat.residual, 1e-3);
  EXPECT_TRUE(num::all_finite(nat.state));
}

TEST(C3ModelTest, NaturalUptakeMatchesPaperOperatingPoint) {
  // Figure 1: "Oper. CO2 Uptake: 15.486 +- 10% umol m^-2 s^-1".
  const double a = present_low().natural_state().co2_uptake;
  EXPECT_NEAR(a, 15.486, 0.10 * 15.486);
}

TEST(C3ModelTest, NaturalNitrogenMatchesPaper) {
  const num::Vec ones(kNumEnzymes, 1.0);
  EXPECT_NEAR(present_low().nitrogen(ones), 208330.0, 0.05 * 208330.0);
}

TEST(C3ModelTest, StateIsNonNegativeAndPoolsPlausibleAtNatural) {
  const num::Vec& y = present_low().natural_state().state;
  for (double v : y) EXPECT_GE(v, 0.0);
  // Conserved pools respected.
  const C3Config& c = present_low().config();
  EXPECT_LE(y[kAtp], c.adenylate_total + 1e-6);
}

TEST(C3ModelTest, DerivativesVanishAtSteadyState) {
  const num::Vec ones(kNumEnzymes, 1.0);
  num::Vec dydt(kNumMetabolites);
  present_low().derivatives(present_low().natural_state().state, ones, dydt);
  EXPECT_LT(num::norm_inf(dydt), 1e-3);
}

TEST(C3ModelTest, CarbonBalanceClosesAtSteadyState) {
  // Net fixation = carbon leaving through export, starch and photorespiratory
  // CO2 (sucrose carbon leaves via the translocator legs).
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Rates r = present_low().rates(present_low().natural_state().state, ones);
  const double carbon_in = r.vc;                       // 1 C per carboxylation
  const double carbon_out = 3.0 * (r.v_export + r.v_export_pga) +
                            6.0 * r.v_starch + r.v_gdc;
  EXPECT_NEAR(carbon_in, carbon_out, 0.05 * carbon_in);
}

TEST(C3ModelTest, PhotorespiratoryChainIsBalanced) {
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Rates r = present_low().rates(present_low().natural_state().state, ones);
  // vo -> PGCA -> GCA -> GOA at steady state.
  EXPECT_NEAR(r.vo, r.v_pgcapase, 0.02 * r.vo);
  EXPECT_NEAR(r.v_pgcapase, r.v_goaox, 0.02 * r.vo);
  // GDC releases one CO2 per two glycines: v_gdc = vo / 2.
  EXPECT_NEAR(r.v_gdc, 0.5 * r.vo, 0.05 * r.vo);
}

TEST(C3ModelTest, UptakeAccountsForPhotorespiration) {
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Model& m = present_low();
  const C3Rates r = m.rates(m.natural_state().state, ones);
  const double expected = m.config().uptake_area_scale * (r.vc - r.v_gdc);
  EXPECT_NEAR(m.co2_uptake(m.natural_state().state, ones), expected, 1e-9);
}

TEST(C3ModelTest, HigherExportCapacityRaisesUptake) {
  EXPECT_GT(present_high().natural_state().co2_uptake,
            present_low().natural_state().co2_uptake);
}

TEST(C3ModelTest, UptakeRespondsToCi) {
  // Fronts should order past < present in natural uptake at high export.
  C3Config past;
  past.ci_ppm = kCiPast;
  past.triose_export_vmax = kExportHigh;
  const C3Model past_model(past);
  ASSERT_TRUE(past_model.natural_state().converged);
  EXPECT_LT(past_model.natural_state().co2_uptake,
            present_high().natural_state().co2_uptake);
}

TEST(C3ModelTest, AllSixScenariosHaveLivingNaturalState) {
  for (const Scenario& s : figure1_scenarios()) {
    const auto model = make_model(s);
    EXPECT_TRUE(model->natural_state().converged) << s.label;
    EXPECT_GT(model->natural_state().co2_uptake, 5.0) << s.label;
  }
}

TEST(C3ModelTest, UpRegulatedPartitionFixesMore) {
  const num::Vec boosted(kNumEnzymes, 5.0);
  const SteadyState ss = present_high().steady_state(boosted);
  ASSERT_TRUE(ss.converged);
  EXPECT_GT(ss.co2_uptake, present_high().natural_state().co2_uptake * 1.5);
}

TEST(C3ModelTest, DownRegulatedPartitionNearDeath) {
  const num::Vec starved(kNumEnzymes, 0.02);
  const SteadyState ss = present_low().steady_state(starved);
  // Either converged with negligible uptake or declared unconverged.
  if (ss.converged) {
    EXPECT_LT(ss.co2_uptake, 1.0);
  }
}

TEST(C3ModelTest, SteadyUptakeOptionalPropagatesFailure) {
  const num::Vec ones(kNumEnzymes, 1.0);
  const auto a = present_low().steady_uptake(ones);
  ASSERT_TRUE(a.has_value());
  EXPECT_NEAR(*a, present_low().natural_state().co2_uptake, 0.2);
}

TEST(C3ModelTest, PerturbedPartitionsEvaluateQuickly) {
  // The warm-start path must handle +-10% perturbations (the robustness
  // ensembles) without falling back to integration.
  num::Rng rng(4);
  const C3Model& m = present_high();
  for (int t = 0; t < 25; ++t) {
    num::Vec mult(kNumEnzymes);
    for (double& v : mult) v = 1.0 + rng.uniform(-0.1, 0.1);
    const SteadyState ss = m.steady_state(mult);
    EXPECT_TRUE(ss.converged);
    EXPECT_GT(ss.co2_uptake, 5.0);
  }
}

/// Free stromal Pi, free cytosolic Pi and ADP: whether each sits on its
/// clamped branch at state y.
struct ClampPattern {
  bool stromal_pi = false, cytosolic_pi = false, adp = false;
};

ClampPattern clamp_pattern(const C3Model& m, const num::Vec& y) {
  const C3Config& c = m.config();
  const C3Rates r = m.rates(y, num::Vec(kNumEnzymes, 1.0));
  return {r.free_pi == c.min_free_pi, r.free_pi_cyt == c.min_free_pi,
          y[kAtp] >= c.adenylate_total};
}

/// Checks every entry of derivatives_and_jacobian()'s Jacobian against a
/// central finite difference of derivatives() at (y, mult), and that its
/// dydt is the plain derivatives() bitwise.
void expect_jacobian_matches_fd(const C3Model& m, const num::Vec& y,
                                const num::Vec& mult, const std::string& label) {
  num::Vec dydt, check(kNumMetabolites);
  num::Vec fplus(kNumMetabolites), fminus(kNumMetabolites);
  num::Matrix jac;
  m.derivatives_and_jacobian(y, mult, dydt, jac);
  m.derivatives(y, mult, check);
  ASSERT_EQ(dydt.size(), check.size()) << label;
  for (std::size_t r = 0; r < kNumMetabolites; ++r) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(dydt[r]),
              std::bit_cast<std::uint64_t>(check[r]))
        << "row " << r << ", " << label;
  }
  for (std::size_t col = 0; col < kNumMetabolites; ++col) {
    const double h = 1e-6 * std::max(1.0, std::fabs(y[col]));
    num::Vec yp(y), ym(y);
    yp[col] += h;
    ym[col] -= h;
    m.derivatives(yp, mult, fplus);
    m.derivatives(ym, mult, fminus);
    for (std::size_t r = 0; r < kNumMetabolites; ++r) {
      const double fd = (fplus[r] - fminus[r]) / (2.0 * h);
      const double tol =
          2e-4 * std::max({1.0, std::fabs(fd), std::fabs(jac(r, col))});
      EXPECT_NEAR(jac(r, col), fd, tol)
          << "entry (" << r << ", " << col << "), " << label;
    }
  }
}

TEST(C3ModelTest, AnalyticJacobianMatchesFiniteDifferences) {
  // The differential guard of the Jacobian: every entry must agree with a
  // central finite difference of derivatives().  The random box mostly
  // lands on the clamped branches (free cytosolic Pi is clamped in every
  // trial), so the natural states and the constructed points below carry
  // the unclamped chains through the conserved pools.
  const C3Model& m = present_low();
  num::Rng rng(1234);
  num::Vec y(kNumMetabolites), mult(kNumEnzymes);
  for (int trial = 0; trial < 25; ++trial) {
    for (double& v : mult) v = rng.uniform(0.05, 4.0);
    for (double& v : y) v = rng.uniform(0.01, 3.0);
    expect_jacobian_matches_fd(m, y, mult, "random trial " + std::to_string(trial));
  }

  // Where real runs live: each Figure-1 natural state (all three pools
  // unclamped), and small perturbations of state and partition around it.
  const num::Vec ones(kNumEnzymes, 1.0);
  for (const Scenario& s : figure1_scenarios()) {
    const auto model = make_model(s);
    const num::Vec& nat = model->natural_state().state;
    expect_jacobian_matches_fd(*model, nat, ones, s.label + " natural");
    for (int k = 0; k < 3; ++k) {
      num::Vec yk(nat), mk(ones);
      for (double& v : yk) v *= 1.0 + rng.uniform(-0.02, 0.02);
      for (double& v : mk) v = 1.0 + rng.uniform(-0.1, 0.1);
      expect_jacobian_matches_fd(*model, yk, mk,
                                 s.label + " perturbation " + std::to_string(k));
    }
  }

  // Free stromal Pi, free cytosolic Pi and ADP each put on both sides of its
  // clamp, in all eight combinations, by rescaling the esterified states of
  // the natural state (and pushing ATP past the adenylate total).  The
  // targets sit 0.5 mmol/l from the kink, far outside the FD stencil.
  const C3Config& c = m.config();
  const num::Vec& nat = m.natural_state().state;
  for (std::size_t e = 0; e < kNumEnzymes; ++e) {
    mult[e] = 0.6 + 0.1 * static_cast<double>(e % 7);
  }
  const std::size_t stromal[] = {kRuBP, kPga, kDpga, kT3p, kFbp, kE4p,
                                 kSbp,  kS7p, kPeP,  kHeP, kPgca};
  const double stromal_w[] = {2, 1, 2, 1, 2, 1, 2, 1, 1, 1, 1};
  const std::size_t cytosolic[] = {kT3pc, kFbpc, kHePc, kUdpg, kSucp, kF26bp};
  const double cytosolic_w[] = {1, 2, 1, 2, 1, 2};
  // Scales the listed states so total - (their weighted sum + fixed) = target.
  const auto place = [](num::Vec& state, std::span<const std::size_t> idx,
                        std::span<const double> w, double total, double fixed,
                        double target) {
    double sum = 0.0;
    for (std::size_t i = 0; i < idx.size(); ++i) sum += w[i] * state[idx[i]];
    const double scale = (total - fixed - target) / sum;
    for (const std::size_t i : idx) state[i] *= scale;
  };
  for (int combo = 0; combo < 8; ++combo) {
    const bool pi_clamped = (combo & 1) != 0;
    const bool pic_clamped = (combo & 2) != 0;
    const bool adp_clamped = (combo & 4) != 0;
    num::Vec yc(nat);
    if (adp_clamped) yc[kAtp] = c.adenylate_total + 0.05;
    place(yc, stromal, stromal_w, c.stromal_phosphate_total, yc[kAtp],
          pi_clamped ? -0.5 : 0.5);
    place(yc, cytosolic, cytosolic_w, c.cytosolic_phosphate_total, 0.0,
          pic_clamped ? -0.5 : 0.5);
    const ClampPattern p = clamp_pattern(m, yc);
    ASSERT_EQ(p.stromal_pi, pi_clamped) << "combination " << combo;
    ASSERT_EQ(p.cytosolic_pi, pic_clamped) << "combination " << combo;
    ASSERT_EQ(p.adp, adp_clamped) << "combination " << combo;
    expect_jacobian_matches_fd(m, yc, mult, "clamp combination " + std::to_string(combo));
  }
}

/// One fixed (model, state, partition) input of the bitwise pin below.
struct PinPoint {
  const C3Model* model;
  num::Vec y;
  num::Vec mult;
};

/// Eight literal inputs: free stromal Pi, free cytosolic Pi and ADP each
/// clamped and unclamped, a near-empty state, and both export levels.
std::vector<PinPoint> pin_points() {
  const num::Vec base = {3.0,  2.0,  0.05, 1.0,  0.10, 0.10, 0.15, 0.30,
                         0.50, 2.0,  0.03, 0.20, 0.05, 1.0,  0.5,  0.01,
                         0.10, 1.0,  0.30, 0.05, 1.0,  0.20, 0.02, 0.003};
  num::Vec ones(kNumEnzymes, 1.0), mult_a(kNumEnzymes), mult_b(kNumEnzymes);
  for (std::size_t e = 0; e < kNumEnzymes; ++e) {
    mult_a[e] = 0.4 + 0.25 * static_cast<double>(e % 9);
    mult_b[e] = 2.5 - 0.15 * static_cast<double>(e % 11);
  }
  num::Vec pi_clamped(base), pic_clamped(base), adp_clamped(base), all_clamped(base);
  pi_clamped[kRuBP] = 5.5;
  pic_clamped[kHePc] = 4.5;
  adp_clamped[kAtp] = 1.7;
  all_clamped[kRuBP] = 5.5;
  all_clamped[kHePc] = 4.5;
  all_clamped[kAtp] = 1.7;
  const num::Vec tiny(kNumMetabolites, 1e-3);
  const C3Model* low = &present_low();
  const C3Model* high = &present_high();
  return {{low, base, ones},         {low, pi_clamped, mult_a},
          {low, pic_clamped, mult_a}, {low, adp_clamped, mult_b},
          {low, all_clamped, mult_b}, {low, tiny, mult_a},
          {high, base, mult_b},       {high, all_clamped, mult_a}};
}

/// derivatives() (24 rows) then co2_uptake() at each pin_points() entry,
/// recorded from the hand-derived model that preceded the templated rate
/// laws.
constexpr double kPinnedRates[8][kNumMetabolites + 1] = {
    {-0x1.12294f85b8f5cp+1, 0x1.b0cbe9c86148cp+3, 0x1.6ba25d0e8b173p+1,
     -0x1.5b648cf81b909p+3, 0x1.6da3e415df26cp-3, 0x1.7fe38cf532b82p-2,
     -0x1.5fa5fa5fa5fa4p-3, 0x1.4d5cd5cd5cd6p-2, -0x1.457173681da8cp+0,
     -0x1.0bb083ba8823p-2, 0x1.68ceb9dc5e6p-1, -0x1.111111111111p-2,
     0x1.724d3fc68324dp-1, -0x1.a712dcf7ea714p-3, 0x1.40ac7691840aep-3,
     -0x1.9de95d3ce6acp-10, -0x1.536202ecfb9cap-3, 0x1.4cd4a03363186p+4,
     -0x1.ad65b480f0b86p-3, 0x1.03e6fcd996974p-3, 0x1.3639af832a88bp-7,
     -0x1.e8e038e3a4bc2p-6, -0x1.d1e94268c6dp-10, -0x1.2a1e9d368ab8dp-5,
     0x1.ecd252bbeb9d7p+4},
    {0x1.b2c5be595700cp+2, 0x1.9844073b55332p+2, -0x1.bd7deadc42275p+2,
     -0x1.3623cf4976104p+1, -0x1.2234070b4592p-5, 0x1.a0cd1ebbf6264p-2,
     -0x1.2951951951952p-1, 0x1.0bcc3cc3cc3cdp+0, -0x1.40566de1d710bp+2,
     -0x1.74a8bbeaa06c2p-1, 0x1.b9a5adb6f7ed8p-4, -0x1.69d0369d0369cp-1,
     0x1.444a03f3c8abp-1, -0x1.2dad0089f8748p-1, 0x1.b3abec990fa14p-2,
     -0x1.07de5ea39fdap-5, -0x1.e47f8fa70eec4p-5, -0x1.f20fa81d760a9p+2,
     -0x1.c091df8b09262p-1, 0x1.0db81a8dee44p-1, -0x1.e74ccf5261fc1p-7,
     -0x1.4ac99f0e4ef4fp-5, -0x1.794b104e94538p-6, -0x1.a4ffe4e49f339p-5,
     0x1.2c7506cb89f93p+3},
    {0x1.b969f408b39fap+2, 0x1.9276a225c6851p+2, 0x1.a0c80331127c4p+1,
     -0x1.8edcd3b28d3cep+3, -0x1.2234070b4592p-5, 0x1.a0cd1ebbf6264p-2,
     -0x1.2951951951952p-1, 0x1.0bcc3cc3cc3cdp+0, -0x1.40566de1d710bp+2,
     -0x1.55f8496685f58p-1, 0x1.4f6252c12ep-4, -0x1.69d0369d0369cp-1,
     0x1.444a03f3c8abp-1, -0x1.2dad0089f8748p-1, 0x1.b3abec990fa14p-2,
     -0x1.07de5ea39fdap-5, -0x1.e47f8fa70eec4p-5, 0x1.cd9fe58edef51p+3,
     -0x1.2479860c8202p+0, 0x1.0db81a8dee44p-1, -0x1.eb37fbd59aa7cp-4,
     -0x1.52bfe7dfcd434p-6, 0x1.392b02ab3482cp-6, -0x1.9c42df26338cap-5,
     0x1.1a5c61511d287p+3},
    {-0x1.31c03819f9fffp+3, -0x1.a3c6cacbb3e17p+4, 0x1.ee132dffacc7ap+5,
     -0x1.20cec4e64cc6dp+4, 0x1.05589dc85d632p-1, 0x1.90e32b178871p-1,
     -0x1.f3e73e73e73ep-4, 0x1.0eb2eb2eb2eb8p-2, -0x1.dd63b956be74p-1,
     -0x1.409dd8e6b1175p-2, 0x1.7b1acdc35495ap+1, -0x1.b4e81b4e81b4fp+0,
     0x1.d19269fe34192p+0, -0x1.190fa1252ff78p-2, 0x1.c40ac7691840cp-3,
     0x1.dbff919fa2e1p-7, -0x1.16298b8e7b772p-1, -0x1.dc6eecc3f5d36p+5,
     -0x1.fb2c60e5280c5p-2, 0x1.c1fa1d17dfe11p-3, 0x1.63ee64a7d131fp-4,
     -0x1.ad414f5b1141p-6, 0x1.6254001970f4p-7, -0x1.7b75b501abc2cp-4,
     0x1.3a0207fbe6c44p+6},
    {-0x1.46815fddfb705p+3, -0x1.902949c8ddc53p+4, 0x1.4590fded0deb7p+5,
     0x1.982133605f742p+1, 0x1.05589dc85d632p-1, 0x1.90e32b178871p-1,
     -0x1.f3e73e73e73ep-4, 0x1.0eb2eb2eb2eb8p-2, -0x1.dd63b956be74p-1,
     -0x1.00f366b8cba17p-1, 0x1.8fdbf5875606p+1, -0x1.b4e81b4e81b4fp+0,
     0x1.d19269fe34192p+0, -0x1.190fa1252ff78p-2, 0x1.c40ac7691840cp-3,
     0x1.dbff919fa2e1p-7, -0x1.16298b8e7b772p-1, -0x1.ddf17ead0b9fbp+5,
     -0x1.85f75d008ee41p-1, 0x1.c1fa1d17dfe11p-3, -0x1.77a53554434f1p-4,
     0x1.6587fc85ecfe4p-5, 0x1.08dae284c00d9p-4, -0x1.7717322275ef5p-4,
     0x1.482549438bc76p+6},
    {-0x1.1338fa8898f7p-7, 0x1.78c9cb08d4068p+3, -0x1.7a97bf5ce81bfp+3,
     0x1.2542fadd210dfp-4, -0x1.5c84a7d1bf49ap-6, -0x1.056db52b8ac65p-13,
     -0x1.fca725f57e811p-6, 0x1.fe79b46312777p-6, -0x1.5dfd591cf7009p-12,
     0x1.5c8c6b7b0f41fp-6, -0x1.00cf3ee2fc336p-5, 0x1.f65a1a53e38bep-7,
     0x1.c28c483484868p-8, 0x1.400a64a340395p-7, 0x1.9379c39b2bb17p-11,
     -0x1.642f13e53b47dp-6, 0x1.643bb9fb63e6ep-6, 0x1.45e6e8be840e2p+5,
     -0x1.fcb1f5004c45dp-15, -0x1.981cd0f86c51p-10, 0x1.978b4a9ea73d2p-6,
     0x1.5b77e287fb3dep-15, -0x1.bb3c48bb4552ap-8, -0x1.7e43b95c57cfp-6,
     0x1.59ddbc32fb6fbp-5},
    {-0x1.40398615401acp+3, 0x1.0ac70593f6a61p+5, 0x1.7524fe87c33f9p+2,
     -0x1.64ffc48b9dcbcp+4, 0x1.05589dc85d632p-1, 0x1.90e32b178871p-1,
     -0x1.f3e73e73e73ep-4, 0x1.0eb2eb2eb2eb8p-2, -0x1.eb9db344b98fp-2,
     -0x1.3e7f64678d43p-2, 0x1.7b1acdc35495ap+1, -0x1.b4e81b4e81b4fp+0,
     0x1.d19269fe34192p+0, -0x1.190fa1252ff78p-2, 0x1.c40ac7691840cp-3,
     0x1.dbff919fa2e1p-7, -0x1.df864a502a216p-2, 0x1.6fc6994c1b469p+4,
     0x1.32c2b0a186ddp-5, 0x1.c1fa1d17dfe11p-3, 0x1.63ee64a7d131fp-4,
     -0x1.ad414f5b1141p-6, 0x1.6254001970f4p-7, -0x1.7b75b501abc2cp-4,
     0x1.3a0207fbe6c44p+6},
    {0x1.e836de47e3b26p+2, -0x1.41bdd400694d6p+3, 0x1.32e70dac3f1ep+3,
     -0x1.1faf7644d737ep+1, -0x1.2234070b4592p-5, 0x1.a0cd1ebbf6264p-2,
     -0x1.2951951951952p-1, 0x1.0bcc3cc3cc3cdp+0, -0x1.75c78dd063c25p+2,
     -0x1.77f4029febdf3p-1, 0x1.b9a5adb6f7ed8p-4, -0x1.69d0369d0369cp-1,
     0x1.444a03f3c8abp-1, -0x1.2dad0089f8748p-1, 0x1.b3abec990fa14p-2,
     -0x1.07de5ea39fdap-5, -0x1.60d7552366b1ap-4, -0x1.9398e54db64e5p+4,
     -0x1.247984dc26a5fp+0, 0x1.0db81a8dee44p-1, -0x1.eb37fbd59aa7cp-4,
     -0x1.52bfe7dfcd434p-6, 0x1.392b02ab3482cp-6, -0x1.9c42df26338cap-5,
     0x1.2c7506cb89f93p+3},
};

TEST(C3ModelTest, RatesArePinnedBitwise) {
  // The model itself must not move when its code is restructured: only the
  // Jacobian's rounding may.  Exact equality, no tolerance.
  const std::vector<PinPoint> points = pin_points();
  ASSERT_EQ(points.size(), std::size(kPinnedRates));
  for (std::size_t p = 0; p < points.size(); ++p) {
    const PinPoint& pt = points[p];
    num::Vec dydt;
    pt.model->derivatives(pt.y, pt.mult, dydt);
    ASSERT_EQ(dydt.size(), kNumMetabolites);
    for (std::size_t r = 0; r < kNumMetabolites; ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dydt[r]),
                std::bit_cast<std::uint64_t>(kPinnedRates[p][r]))
          << "point " << p << ", row " << r;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pt.model->co2_uptake(pt.y, pt.mult)),
              std::bit_cast<std::uint64_t>(kPinnedRates[p][kNumMetabolites]))
        << "point " << p << ", uptake";
  }
}

TEST(C3ModelTest, RatesAreFiniteEverywhereInBox) {
  num::Rng rng(9);
  const C3Model& m = present_low();
  num::Vec y = C3Model::default_initial_state();
  for (int t = 0; t < 100; ++t) {
    num::Vec mult(kNumEnzymes);
    for (double& v : mult) v = rng.uniform(0.02, 5.0);
    for (double& v : y) v = rng.uniform(0.0, 5.0);
    num::Vec dydt(kNumMetabolites);
    m.derivatives(y, mult, dydt);
    EXPECT_TRUE(num::all_finite(dydt));
  }
}

TEST(C3ModelTest, AnalyticEngineAgreesWithFdColdStartBaseline) {
  // The optimized engine (analytic Jacobian, chord reuse, warm pool) and the
  // PR-4-era baseline must find the same living root — same uptake within
  // solver tolerance — while spending several times fewer RHS evaluations.
  C3Config base_cfg;
  base_cfg.analytic_jacobian = false;
  base_cfg.chord_max_age = 1;
  base_cfg.warm_pool_capacity = 0;
  const C3Model baseline(base_cfg);
  const C3Model optimized{C3Config{}};
  ASSERT_TRUE(baseline.natural_state().converged);
  ASSERT_TRUE(optimized.natural_state().converged);
  EXPECT_NEAR(optimized.natural_state().co2_uptake,
              baseline.natural_state().co2_uptake,
              0.02 * baseline.natural_state().co2_uptake);

  num::Rng rng(21);
  std::size_t rhs_base = 0, rhs_opt = 0;
  int settled = 0;
  for (int t = 0; t < 8; ++t) {
    num::Vec mult(kNumEnzymes);
    for (double& v : mult) v = std::clamp(rng.normal(1.0, 0.15), 0.02, 5.0);
    const SteadyState b = baseline.steady_state(mult);
    const SteadyState o = optimized.steady_state(mult);
    ASSERT_EQ(b.converged, o.converged) << "candidate " << t;
    if (!b.converged) continue;
    EXPECT_GT(b.rhs_evaluations, 0u);
    EXPECT_GT(b.jacobian_factorizations, 0u);
    rhs_base += b.rhs_evaluations;
    rhs_opt += o.rhs_evaluations;
    // Candidates near the Hopf boundary legitimately resolve differently
    // (a cycle AVERAGE vs a genuine root the better Jacobian reaches);
    // same-root agreement is asserted where both solvers truly settled.
    if (b.residual > 1e-2 || o.residual > 1e-2) continue;
    ++settled;
    EXPECT_NEAR(o.co2_uptake, b.co2_uptake,
                0.02 * std::max(1.0, std::fabs(b.co2_uptake)))
        << "candidate " << t;
  }
  ASSERT_GT(settled, 3);
  // The headline saving: >= 3x fewer RHS evaluations over the sample.
  EXPECT_LT(3 * rhs_opt, rhs_base)
      << "optimized " << rhs_opt << " vs baseline " << rhs_base;
}

TEST(C3ModelTest, SequentialSolvesWarmStartFromThePool) {
  const C3Model m{C3Config{}};
  ASSERT_TRUE(m.natural_state().converged);
  const num::Vec first(kNumEnzymes, 1.08);
  const SteadyState s1 = m.steady_state(first);
  ASSERT_TRUE(s1.converged);
  // Serial context: the living solution commits immediately.
  EXPECT_GT(m.warm_pool().snapshot_size(), 0u);
  const num::Vec second(kNumEnzymes, 1.10);
  const SteadyState s2 = m.steady_state(second);
  ASSERT_TRUE(s2.converged);
  EXPECT_TRUE(s2.warm_started);
}

TEST(C3ModelTest, CallerHintShortCircuitsTheLadder) {
  const C3Model& m = present_low();
  num::Vec mult(kNumEnzymes, 1.0);
  mult[kRubisco] = 1.02;  // a control-analysis-sized probe
  const SteadyState ss = m.steady_state(mult, m.natural_state().state);
  ASSERT_TRUE(ss.converged);
  EXPECT_TRUE(ss.warm_started);
  EXPECT_FALSE(ss.used_integration_fallback);
}

TEST(C3ModelTest, DisabledPoolNeverWarmStarts) {
  C3Config cfg;
  cfg.warm_pool_capacity = 0;
  const C3Model m(cfg);
  ASSERT_TRUE(m.natural_state().converged);
  const num::Vec a(kNumEnzymes, 1.05);
  ASSERT_TRUE(m.steady_state(a).converged);
  EXPECT_EQ(m.warm_pool().snapshot_size(), 0u);
  const SteadyState s2 = m.steady_state(a);
  ASSERT_TRUE(s2.converged);
  EXPECT_FALSE(s2.warm_started);
}

TEST(C3ModelTest, EpochCommittedPoolIsThreadCountInvariant) {
  // The tentpole's determinism contract at unit level: generational batches
  // through core::evaluate_batch, with the problem's epoch commit between
  // them (exactly what the engines do), must produce bit-identical
  // objectives and violations for any thread count.  A fresh model per
  // width — the pool is model state.
  const auto run_with_threads = [](std::size_t threads) {
    auto model = std::make_shared<const C3Model>(C3Config{});
    PhotosynthesisProblem problem(model);
    num::Rng rng(77);
    std::vector<num::Vec> scores;
    for (int gen = 0; gen < 3; ++gen) {
      std::vector<moo::Individual> batch(16);
      for (moo::Individual& ind : batch) {
        ind.x.resize(kNumEnzymes);
        for (double& v : ind.x) v = std::clamp(rng.normal(1.0, 0.25), 0.02, 5.0);
      }
      core::evaluate_batch(problem, batch, threads);
      problem.commit_epoch();
      for (moo::Individual& ind : batch) {
        num::Vec row = ind.f;
        row.push_back(ind.violation);
        scores.push_back(std::move(row));
      }
    }
    return scores;
  };
  const auto serial = run_with_threads(1);
  const auto wide = run_with_threads(8);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], wide[i]) << "candidate " << i;  // bitwise
  }
}

}  // namespace
}  // namespace rmp::kinetics
