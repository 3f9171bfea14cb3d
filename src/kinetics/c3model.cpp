#include "kinetics/c3model.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <type_traits>
#include <utility>

#include "core/parallel.hpp"
#include "numeric/newton.hpp"
#include "numeric/workspace.hpp"

namespace rmp::kinetics {

namespace {

/// Simple saturating term x / (x + k).
template <class T>
T mm(const T& x, double k) { return x / (x + k); }

// --- the narrow dual number the Jacobian is derived with --------------------

/// Forward-mode dual number: a value and its partials with respect to one
/// rate law's N inputs (N <= 4), never the whole state.  Every operation
/// computes its value exactly as the double operation would, so a law
/// evaluated in duals yields the double law's bits as its value.
template <std::size_t N>
struct Dual {
  double v = 0.0;
  std::array<double, N> d{};
};

/// A dual with value v and partials d(s).
template <std::size_t N, class Partial>
Dual<N> make_dual(double v, Partial&& d) {
  Dual<N> r{v};
  for (std::size_t s = 0; s < N; ++s) r.d[s] = d(s);
  return r;
}

template <std::size_t N>
Dual<N> operator+(const Dual<N>& a, const Dual<N>& b) {
  return make_dual<N>(a.v + b.v, [&](std::size_t s) { return a.d[s] + b.d[s]; });
}
template <std::size_t N>
Dual<N> operator+(const Dual<N>& a, double b) { return {a.v + b, a.d}; }
template <std::size_t N>
Dual<N> operator+(double a, const Dual<N>& b) { return {a + b.v, b.d}; }
template <std::size_t N>
Dual<N> operator-(const Dual<N>& a, const Dual<N>& b) {
  return make_dual<N>(a.v - b.v, [&](std::size_t s) { return a.d[s] - b.d[s]; });
}
template <std::size_t N>
Dual<N> operator*(const Dual<N>& a, const Dual<N>& b) {
  return make_dual<N>(a.v * b.v,
                      [&](std::size_t s) { return a.d[s] * b.v + a.v * b.d[s]; });
}
template <std::size_t N>
Dual<N> operator*(double a, const Dual<N>& b) {
  return make_dual<N>(a * b.v, [&](std::size_t s) { return a * b.d[s]; });
}
template <std::size_t N>
Dual<N> operator/(const Dual<N>& a, const Dual<N>& b) {
  const double q = a.v / b.v;
  const double inv = 1.0 / b.v;
  return make_dual<N>(q, [&](std::size_t s) { return (a.d[s] - q * b.d[s]) * inv; });
}
template <std::size_t N>
Dual<N> operator/(const Dual<N>& a, double b) {
  const double inv = 1.0 / b;
  return make_dual<N>(a.v / b, [&](std::size_t s) { return a.d[s] * inv; });
}

// --- rate-law inputs -----------------------------------------------------------

// Beyond the 24 states, the laws read the free parts of the three conserved
// pools as inputs of their own; the Jacobian assembly chains them to the
// states through kPoolBound.
constexpr std::size_t kFreePi = kNumMetabolites;     ///< free stromal phosphate
constexpr std::size_t kFreePiCyt = kFreePi + 1;      ///< free cytosolic phosphate
constexpr std::size_t kAdp = kFreePiCyt + 1;         ///< adenylate_total - ATP

/// A metabolite's weight in a conserved pool (phosphate groups or adenylates
/// per molecule).
struct PoolTerm {
  std::size_t idx;
  double w;
};

constexpr PoolTerm kStromalEster[] = {
    {kRuBP, 2.0}, {kPga, 1.0}, {kDpga, 2.0}, {kT3p, 1.0},
    {kFbp, 2.0},  {kE4p, 1.0}, {kSbp, 2.0},  {kS7p, 1.0},
    {kPeP, 1.0},  {kHeP, 1.0}, {kPgca, 1.0}, {kAtp, 1.0}};
constexpr PoolTerm kCytosolEster[] = {{kT3pc, 1.0}, {kFbpc, 2.0},
                                      {kHePc, 1.0}, {kUdpg, 2.0},
                                      {kSucp, 1.0}, {kF26bp, 2.0}};
constexpr PoolTerm kAdenylate[] = {{kAtp, 1.0}};

/// The states bound in each pool, indexed by input - kNumMetabolites.
constexpr std::span<const PoolTerm> kPoolBound[] = {kStromalEster, kCytosolEster,
                                                    kAdenylate};
constexpr std::size_t kNumPools = std::size(kPoolBound);

/// Free part of each conserved pool at a state: total minus the bound
/// states, clamped at a floor.  `live` is false on the clamped branch, where
/// the free part does not move with the states.
struct FreePools {
  std::array<double, kNumPools> value;
  std::array<bool, kNumPools> live;
};

FreePools free_pools(std::span<const double> y, const C3Config& c) {
  const double total[] = {c.stromal_phosphate_total, c.cytosolic_phosphate_total,
                          c.adenylate_total};
  const double floor[] = {c.min_free_pi, c.min_free_pi, 0.0};
  FreePools p{};
  for (std::size_t k = 0; k < kNumPools; ++k) {
    double bound = 0.0;
    for (const PoolTerm& t : kPoolBound[k]) bound += t.w * y[t.idx];
    const double raw = total[k] - bound;
    p.value[k] = std::max(raw, floor[k]);
    p.live[k] = raw > floor[k];
  }
  return p;
}

/// A reaction, named by its C3Rates field.
using Rate = double C3Rates::*;

/// Tags a rate law with its reaction R and the inputs I... it reads; the
/// law's dual pass seeds exactly these, in this order.
template <Rate R, std::size_t... I>
struct Law {};

/// Input i of a rate law at a state: a metabolite or a free pool part.
double input_value(std::span<const double> y, const FreePools& pools, std::size_t i) {
  return i < kNumMetabolites ? y[i] : pools.value[i - kNumMetabolites];
}

// --- the rate laws -----------------------------------------------------------

/// Calls visit(Law<reaction, inputs...>{}, rate) for every reaction; rate(x)
/// evaluates the law from an input accessor x, where x(i) yields input i (a
/// MetaboliteId or one of kFreePi, kFreePiCyt, kAdp) as the accessor's
/// scalar type.  Each rate law is written here once: rates() instantiates it
/// for double, the Jacobian for Dual.
template <class Visit>
void for_each_rate_law(const C3Config& c, std::span<const double> mult,
                       Visit&& visit) {
  const auto enz = enzyme_table();
  const auto vmax = [&](std::size_t e) { return mult[e] * enz[e].natural_vmax; };

  // --- Rubisco: carboxylation and oxygenation compete for RuBP ------------
  const double f_co2 = c.ci_ppm / (c.ci_ppm + c.kc_ppm * (1.0 + c.o2_ppm / c.ko_ppm));
  const double f_o2 = c.o2_ppm / (c.o2_ppm + c.ko_ppm * (1.0 + c.ci_ppm / c.kc_ppm));
  visit(Law<&C3Rates::vc, kRuBP>{}, [&](auto& x) {
    return vmax(kRubisco) * f_co2 * mm(x(kRuBP), c.km_rubp);
  });
  visit(Law<&C3Rates::vo, kRuBP>{}, [&](auto& x) {
    return vmax(kRubisco) * c.vo_vc_capacity_ratio * f_o2 * mm(x(kRuBP), c.km_rubp);
  });

  // --- PGA reduction: reversible, near-equilibrium ---------------------------
  // v = V (S1 S2 - P1 P2 / Keq) / ((S1 + K1)(S2 + K2)); the displacement
  // term vanishes at equilibrium so these large-capacity enzymes buffer the
  // sector instead of pumping it dry.
  visit(Law<&C3Rates::v_pgak, kPga, kAtp, kDpga, kAdp>{}, [&](auto& x) {
    return vmax(kPgaKinase) *
           (x(kPga) * x(kAtp) - x(kDpga) * x(kAdp) / c.keq_pgak) /
           ((x(kPga) + c.km_pga_pgak) * (x(kAtp) + c.km_atp_pgak));
  });
  // NADPH saturating (light-saturated conditions); Pi appears as product.
  visit(Law<&C3Rates::v_gapdh, kDpga, kT3p, kFreePi>{}, [&](auto& x) {
    return vmax(kGapDh) * (x(kDpga) - x(kT3p) * x(kFreePi) / c.keq_gapdh) /
           (x(kDpga) + c.km_dpga_gapdh);
  });

  // --- Calvin cycle regeneration -------------------------------------------
  // Rate laws act on the equilibrium pools directly; the GAP/DHAP (and
  // F6P/G6P/G1P, Ru5P/Xu5P/Ri5P) splits are folded into effective Kms.
  // FBP aldolase: condensation with product inhibition by FBP.
  visit(Law<&C3Rates::v_fbpald, kT3p, kFbp>{}, [&](auto& x) {
    return vmax(kFbpAldolase) * mm(x(kT3p), c.km_t3p_ald) *
           mm(x(kT3p), c.km_t3p_ald) / (1.0 + x(kFbp) / c.km_fbp_ald_rev);
  });
  visit(Law<&C3Rates::v_fbpase, kFbp>{}, [&](auto& x) {
    return vmax(kFbpase) * mm(x(kFbp), c.km_fbp_fbpase);
  });
  visit(Law<&C3Rates::v_tk1, kHeP, kT3p>{}, [&](auto& x) {
    return vmax(kTransketolase) * mm(c.frac_f6p_hep * x(kHeP), c.km_f6p_tk) *
           mm(x(kT3p), c.km_t3p_tk);
  });
  visit(Law<&C3Rates::v_tk2, kS7p, kT3p>{}, [&](auto& x) {
    return vmax(kTransketolase) * mm(x(kS7p), c.km_s7p_tk) * mm(x(kT3p), c.km_t3p_tk);
  });
  visit(Law<&C3Rates::v_sbpald, kE4p, kT3p>{}, [&](auto& x) {
    return vmax(kSbpAldolase) * mm(x(kE4p), c.km_e4p_sald) *
           mm(x(kT3p), c.km_t3p_sald);
  });
  visit(Law<&C3Rates::v_sbpase, kSbp>{}, [&](auto& x) {
    return vmax(kSbpase) * mm(x(kSbp), c.km_sbp_sbpase);
  });
  // PRK with competitive PGA inhibition.
  visit(Law<&C3Rates::v_prk, kPeP, kPga, kAtp>{}, [&](auto& x) {
    const auto ru5p = c.frac_ru5p_pep * x(kPeP);
    return vmax(kPrk) * ru5p /
           (ru5p + c.km_ru5p_prk * (1.0 + x(kPga) / c.ki_pga_prk)) *
           mm(x(kAtp), c.km_atp_prk);
  });

  // --- starch synthesis: allosterically controlled by the PGA/Pi ratio -------
  // (the physiological overflow valve: carbon goes to starch when phosphate
  // is being sequestered in PGA).
  visit(Law<&C3Rates::v_starch, kPga, kFreePi, kHeP, kAtp>{}, [&](auto& x) {
    const auto pga_pi_ratio = x(kPga) / x(kFreePi);
    const auto ratio_sq = pga_pi_ratio * pga_pi_ratio;
    const auto starch_act =
        ratio_sq / (ratio_sq + c.ka_pga_adpgpp * c.ka_pga_adpgpp);
    return vmax(kAdpgpp) * mm(c.frac_g1p_hep * x(kHeP), c.km_g1p_adpgpp) *
           mm(x(kAtp), 0.3) * starch_act;
  });

  // --- photorespiration -------------------------------------------------------
  visit(Law<&C3Rates::v_pgcapase, kPgca>{}, [&](auto& x) {
    return vmax(kPgcaPase) * mm(x(kPgca), c.km_pgca);
  });
  visit(Law<&C3Rates::v_goaox, kGca>{}, [&](auto& x) {
    return vmax(kGoaOxidase) * mm(x(kGca), c.km_gca);
  });
  visit(Law<&C3Rates::v_ggat, kGoa>{}, [&](auto& x) {
    return vmax(kGgat) * mm(x(kGoa), c.km_goa_ggat);
  });
  visit(Law<&C3Rates::v_gsat, kGoa, kSer>{}, [&](auto& x) {
    return vmax(kGsat) * mm(x(kGoa), c.km_goa_gsat) * mm(x(kSer), c.km_ser_gsat);
  });
  visit(Law<&C3Rates::v_gdc, kGly>{}, [&](auto& x) {
    return vmax(kGdc) * mm(x(kGly), c.km_gly_gdc);
  });
  visit(Law<&C3Rates::v_hpr, kHpr>{}, [&](auto& x) {
    return vmax(kHprReductase) * mm(x(kHpr), c.km_hpr);
  });
  visit(Law<&C3Rates::v_gceak, kGcea, kAtp>{}, [&](auto& x) {
    return vmax(kGceaKinase) * mm(x(kGcea), c.km_gcea) *
           mm(x(kAtp), c.km_atp_gceak);
  });

  // --- export through the Pi translocator ------------------------------------
  // T3P and PGA compete for the same carrier capacity.  Both carrier legs are
  // cooperative (Hill-2): export vanishes quadratically when the stromal
  // pools are lean (the cycle keeps its carbon — no collapse) and engages
  // strongly when they are replete (no phosphate swamp).  The antiport runs
  // on free cytosolic Pi (Hill-2 as well), so a congested cytosol (sucrose
  // path saturated) throttles export — the sink-limitation feedback.
  const auto translocator = [&](auto& x, MetaboliteId leg) {
    const auto t3p_leg = (x(kT3p) / c.km_t3p_export) * (x(kT3p) / c.km_t3p_export);
    const auto pga_leg = (x(kPga) / c.km_pga_export) * (x(kPga) / c.km_pga_export);
    const auto carrier_load = 1.0 + t3p_leg + pga_leg;
    const auto pi_term = mm(x(kFreePiCyt), c.km_pi_cyt_export);
    const auto antiport = c.triose_export_vmax * pi_term * pi_term / carrier_load;
    return antiport * (leg == kT3p ? t3p_leg : pga_leg);
  };
  visit(Law<&C3Rates::v_export, kT3p, kPga, kFreePiCyt>{},
        [&](auto& x) { return translocator(x, kT3p); });
  visit(Law<&C3Rates::v_export_pga, kT3p, kPga, kFreePiCyt>{},
        [&](auto& x) { return translocator(x, kPga); });

  // --- cytosolic sucrose synthesis -------------------------------------------
  visit(Law<&C3Rates::v_cfbpald, kT3pc>{}, [&](auto& x) {
    return vmax(kCytFbpAldolase) * mm(x(kT3pc), c.km_t3pc_ald) *
           mm(x(kT3pc), c.km_t3pc_ald);
  });
  // Cytosolic FBPase: strongly inhibited by the F26BP regulator.
  visit(Law<&C3Rates::v_cfbpase, kFbpc, kF26bp>{}, [&](auto& x) {
    return vmax(kCytFbpase) * x(kFbpc) /
           (x(kFbpc) + c.km_fbpc_fbpase * (1.0 + x(kF26bp) / c.ki_f26bp_fbpase));
  });
  visit(Law<&C3Rates::v_udpgp, kHePc>{}, [&](auto& x) {
    return vmax(kUdpgp) * mm(c.frac_g1p_hep * x(kHePc), c.km_hepc_udpgp);
  });
  visit(Law<&C3Rates::v_sps, kUdpg, kHePc>{}, [&](auto& x) {
    return vmax(kSps) * mm(x(kUdpg), c.km_udpg_sps) *
           mm(c.frac_f6p_hep * x(kHePc), c.km_hepc_sps);
  });
  visit(Law<&C3Rates::v_spp, kSucp>{}, [&](auto& x) {
    return vmax(kSpp) * mm(x(kSucp), c.km_sucp_spp);
  });
  visit(Law<&C3Rates::v_f26bpase, kF26bp>{}, [&](auto& x) {
    return vmax(kF26bpase) * mm(x(kF26bp), c.km_f26bp_f26bpase);
  });
  visit(Law<&C3Rates::v_f26bp_syn, kHePc>{}, [&](auto& x) {
    return c.f26bp_synthesis_rate * mm(c.frac_f6p_hep * x(kHePc), c.km_hepc_f26bpsyn);
  });

  // --- ATP regeneration by the (light-saturated) thylakoid reactions ---------
  visit(Law<&C3Rates::v_atpsyn, kAdp, kFreePi>{}, [&](auto& x) {
    return c.atp_synthesis_vmax * mm(x(kAdp), c.km_adp_atpsyn) *
           mm(x(kFreePi), c.km_pi_atpsyn);
  });
}

// --- the stoichiometry ---------------------------------------------------------

/// One term of dy_row/dt: coef * rate.
struct StoichTerm {
  std::size_t row;
  Rate rate;
  double coef;
};

/// Row-major, each row's terms in summation order (derivatives()' bits
/// depend on that order).
constexpr StoichTerm kStoichiometry[] = {
    {kRuBP, &C3Rates::v_prk, 1}, {kRuBP, &C3Rates::vc, -1}, {kRuBP, &C3Rates::vo, -1},
    {kPga, &C3Rates::vc, 2}, {kPga, &C3Rates::vo, 1}, {kPga, &C3Rates::v_gceak, 1},
    {kPga, &C3Rates::v_pgak, -1}, {kPga, &C3Rates::v_export_pga, -1},
    {kDpga, &C3Rates::v_pgak, 1}, {kDpga, &C3Rates::v_gapdh, -1},
    {kT3p, &C3Rates::v_gapdh, 1}, {kT3p, &C3Rates::v_fbpald, -2},
    {kT3p, &C3Rates::v_tk1, -1}, {kT3p, &C3Rates::v_tk2, -1},
    {kT3p, &C3Rates::v_sbpald, -1}, {kT3p, &C3Rates::v_export, -1},
    {kFbp, &C3Rates::v_fbpald, 1}, {kFbp, &C3Rates::v_fbpase, -1},
    {kE4p, &C3Rates::v_tk1, 1}, {kE4p, &C3Rates::v_sbpald, -1},
    {kSbp, &C3Rates::v_sbpald, 1}, {kSbp, &C3Rates::v_sbpase, -1},
    {kS7p, &C3Rates::v_sbpase, 1}, {kS7p, &C3Rates::v_tk2, -1},
    {kPeP, &C3Rates::v_tk1, 1}, {kPeP, &C3Rates::v_tk2, 2}, {kPeP, &C3Rates::v_prk, -1},
    {kHeP, &C3Rates::v_fbpase, 1}, {kHeP, &C3Rates::v_tk1, -1},
    {kHeP, &C3Rates::v_starch, -1},
    {kPgca, &C3Rates::vo, 1}, {kPgca, &C3Rates::v_pgcapase, -1},
    {kGca, &C3Rates::v_pgcapase, 1}, {kGca, &C3Rates::v_goaox, -1},
    {kGoa, &C3Rates::v_goaox, 1}, {kGoa, &C3Rates::v_ggat, -1},
    {kGoa, &C3Rates::v_gsat, -1},
    {kGly, &C3Rates::v_ggat, 1}, {kGly, &C3Rates::v_gsat, 1}, {kGly, &C3Rates::v_gdc, -2},
    {kSer, &C3Rates::v_gdc, 1}, {kSer, &C3Rates::v_gsat, -1},
    {kHpr, &C3Rates::v_gsat, 1}, {kHpr, &C3Rates::v_hpr, -1},
    {kGcea, &C3Rates::v_hpr, 1}, {kGcea, &C3Rates::v_gceak, -1},
    {kAtp, &C3Rates::v_atpsyn, 1}, {kAtp, &C3Rates::v_pgak, -1},
    {kAtp, &C3Rates::v_prk, -1}, {kAtp, &C3Rates::v_gceak, -1},
    {kAtp, &C3Rates::v_starch, -1},
    // Exported PGA enters the cytosolic triose pool as a C3 equivalent (its
    // glycolytic conversion is not modeled separately).
    {kT3pc, &C3Rates::v_export, 1}, {kT3pc, &C3Rates::v_export_pga, 1},
    {kT3pc, &C3Rates::v_cfbpald, -2},
    {kFbpc, &C3Rates::v_cfbpald, 1}, {kFbpc, &C3Rates::v_cfbpase, -1},
    {kHePc, &C3Rates::v_cfbpase, 1}, {kHePc, &C3Rates::v_f26bpase, 1},
    {kHePc, &C3Rates::v_udpgp, -1}, {kHePc, &C3Rates::v_sps, -1},
    {kHePc, &C3Rates::v_f26bp_syn, -1},
    {kUdpg, &C3Rates::v_udpgp, 1}, {kUdpg, &C3Rates::v_sps, -1},
    {kSucp, &C3Rates::v_sps, 1}, {kSucp, &C3Rates::v_spp, -1},
    {kF26bp, &C3Rates::v_f26bp_syn, 1}, {kF26bp, &C3Rates::v_f26bpase, -1},
};

/// Calls f(k) for every term index k of kStoichiometry, in table order, with
/// k a compile-time constant (std::integral_constant) so each term unrolls
/// into straight-line code.
template <class F>
void for_each_stoich_term(F&& f) {
  [&]<std::size_t... K>(std::index_sequence<K...>) {
    (f(std::integral_constant<std::size_t, K>{}), ...);
  }(std::make_index_sequence<std::size(kStoichiometry)>{});
}

/// dydt = S v, each row summed left to right from its first term.
void apply_stoichiometry(const C3Rates& r, num::Vec& dydt) {
  dydt.resize(kNumMetabolites);
  for_each_stoich_term([&](auto k) {
    constexpr StoichTerm t = kStoichiometry[k];
    constexpr bool first = k == 0 || kStoichiometry[k - 1].row != t.row;
    const double term = t.coef * r.*t.rate;
    dydt[t.row] = first ? term : dydt[t.row] + term;
  });
}

/// jac(row, :) += dv * d(input I)/dy: the unit column for a state; for a
/// free pool part, -w on each bound state, or nothing on the clamped branch.
template <std::size_t I>
void add_partial(num::Matrix& jac, std::size_t row, double dv, const FreePools& pools) {
  if constexpr (I < kNumMetabolites) {
    jac(row, I) += dv;
  } else if (pools.live[I - kNumMetabolites]) {
    for (const PoolTerm& b : kPoolBound[I - kNumMetabolites]) jac(row, b.idx) -= b.w * dv;
  }
}

}  // namespace

C3Model::C3Model(C3Config config)
    : config_(config), warm_pool_(config.warm_pool_capacity) {
  // Solve the wild-type steady state once.  A cold start can transiently
  // drain the autocatalytic cycle in the harsher conditions (low Ci, high
  // export pull), so the solve walks a continuation ladder: first the benign
  // present-day/low-export condition from the textbook initial state, then
  // Ci and the export capacity are moved to their targets one at a time,
  // each rung starting from the previous attractor.
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Config target = config_;
  thorough_fallback_ = true;  // the one-off natural solve can afford long legs

  // Direct solve at the target condition first.
  natural_ = solve_from(default_initial_state(), ones, /*allow_fallback=*/true);
  if (natural_.converged && natural_.co2_uptake > 0.1) {
    build_anchors();
    thorough_fallback_ = false;
    return;
  }

  config_.ci_ppm = 270.0;
  config_.triose_export_vmax = 1.0;
  natural_ = solve_from(default_initial_state(), ones, /*allow_fallback=*/true);

  // Adaptive continuation of one scenario knob: try the full remaining jump
  // with a Newton-only solve, halving the step whenever the new rung's
  // attractor is out of reach.
  const auto continue_knob = [&](double C3Config::* knob, double target_value) {
    double current = config_.*knob;
    double step = target_value - current;
    while (natural_.converged && current != target_value && std::fabs(step) > 1e-3) {
      config_.*knob = current + step;
      const SteadyState next =
          solve_from(natural_.state, ones, /*allow_fallback=*/false);
      if (next.converged && next.co2_uptake > 0.05) {
        natural_ = next;
        current += step;
        step = target_value - current;
      } else {
        step *= 0.5;
      }
    }
    config_.*knob = target_value;
    if (natural_.converged && current != target_value) {
      // Final (possibly tiny) jump with the fallback enabled.
      natural_ = solve_from(natural_.state, ones, /*allow_fallback=*/true);
    }
  };

  continue_knob(&C3Config::ci_ppm, target.ci_ppm);
  continue_knob(&C3Config::triose_export_vmax, target.triose_export_vmax);
  config_ = target;
  build_anchors();
  thorough_fallback_ = false;
}

void C3Model::build_anchors() {
  anchors_.clear();
  if (!natural_.converged) return;
  anchors_.push_back(natural_.state);
  // Representative partitions spanning the search box; their steady states
  // give Newton a nearby start for down- and up-regulated candidates.
  for (const double level : {0.4, 2.5}) {
    const num::Vec mult(kNumEnzymes, level);
    const SteadyState ss = solve_from(natural_.state, mult, /*allow_fallback=*/true);
    if (ss.converged) anchors_.push_back(ss.state);
  }
}

num::Vec C3Model::default_initial_state() {
  num::Vec y(kNumMetabolites, 0.0);
  y[kRuBP] = 3.0;
  y[kPga] = 2.0;
  y[kDpga] = 0.05;
  y[kT3p] = 1.0;
  y[kFbp] = 0.10;
  y[kE4p] = 0.10;
  y[kSbp] = 0.15;
  y[kS7p] = 0.30;
  y[kPeP] = 0.50;
  y[kHeP] = 2.0;
  y[kPgca] = 0.03;
  y[kGca] = 0.20;
  y[kGoa] = 0.05;
  y[kGly] = 1.0;
  y[kSer] = 0.5;
  y[kHpr] = 0.01;
  y[kGcea] = 0.10;
  y[kAtp] = 1.0;
  y[kT3pc] = 0.30;
  y[kFbpc] = 0.05;
  y[kHePc] = 1.0;
  y[kUdpg] = 0.20;
  y[kSucp] = 0.02;
  y[kF26bp] = 0.003;
  return y;
}

// Flattened, as jacobian_at() is, so every rate law inlines here and config
// and state stay in registers across the laws (~1.5x slower without).
[[gnu::flatten]]
C3Rates C3Model::rates(std::span<const double> y, std::span<const double> mult) const {
  assert(y.size() == kNumMetabolites);
  assert(mult.size() == kNumEnzymes);
  const FreePools pools = free_pools(y, config_);
  const auto x = [&](std::size_t i) { return input_value(y, pools, i); };
  C3Rates r;
  for_each_rate_law(config_, mult,
                    [&]<Rate R, std::size_t... I>(Law<R, I...>, const auto& rate) {
                      r.*R = rate(x);
                    });
  r.free_pi = x(kFreePi);
  r.free_pi_cyt = x(kFreePiCyt);
  return r;
}

void C3Model::derivatives(std::span<const double> y, std::span<const double> mult,
                          num::Vec& dydt) const {
  apply_stoichiometry(rates(y, mult), dydt);
}

double C3Model::co2_uptake(std::span<const double> y,
                           std::span<const double> mult) const {
  const C3Rates r = rates(y, mult);
  return config_.uptake_area_scale * (r.vc - r.v_gdc);
}

// The Jacobian, derived from the rate laws themselves: each law is evaluated
// once in Dual arithmetic, seeded on the few inputs it reads, and its
// gradient is added into jac through the stoichiometry table derivatives() sums.
// A gradient against a free pool part chains to the pool's bound states
// (-w each) unless the pool sits on its clamped branch, where it is flat;
// the kinks are measure-zero and the solver's backtracking tolerates them.
[[gnu::flatten]]
void C3Model::jacobian_at(std::span<const double> y, std::span<const double> mult,
                          num::Matrix& jac, num::Vec* dydt) const {
  assert(y.size() == kNumMetabolites);
  assert(mult.size() == kNumEnzymes);
  const FreePools pools = free_pools(y, config_);
  jac.reshape(kNumMetabolites, kNumMetabolites);
  C3Rates r;
  for_each_rate_law(config_, mult, [&]<Rate R, std::size_t... I>(Law<R, I...>,
                                                               const auto& rate) {
    // Input I_s enters as a dual with partial 1 in slot s.
    constexpr std::array<std::size_t, sizeof...(I)> inputs{I...};
    const auto x = [&](std::size_t i) {
      Dual<sizeof...(I)> in{input_value(y, pools, i)};
      const auto slot = std::find(inputs.begin(), inputs.end(), i);
      if (slot == inputs.end()) {
        // Reading an undeclared input would silently drop a Jacobian column.
        std::fprintf(stderr, "c3model: a rate law reads undeclared input %zu\n", i);
        std::abort();
      }
      in.d[static_cast<std::size_t>(slot - inputs.begin())] = 1.0;
      return in;
    };
    const auto g = rate(x);
    r.*R = g.v;
    // Every stoichiometry term of R, with the partial against each input.
    for_each_stoich_term([&](auto k) {
      constexpr StoichTerm t = kStoichiometry[k];
      if constexpr (t.rate == R) {
        std::size_t s = 0;
        (add_partial<I>(jac, t.row, t.coef * g.d[s++], pools), ...);
      }
    });
  });
  if (dydt != nullptr) apply_stoichiometry(r, *dydt);
}

void C3Model::derivatives_and_jacobian(std::span<const double> y,
                                       std::span<const double> mult,
                                       num::Vec& dydt, num::Matrix& jac) const {
  jacobian_at(y, mult, jac, &dydt);
}

struct C3Model::AtPartition {
  const C3Model& model;
  std::span<const double> mult;

  void operator()(std::span<const double> y, num::Vec& dydt) const {
    model.derivatives(y, mult, dydt);
  }
  void operator()(double, std::span<const double> y, num::Vec& dydt) const {
    model.derivatives(y, mult, dydt);
  }
  void operator()(std::span<const double> y, num::Matrix& jac) const {
    model.jacobian_at(y, mult, jac);
  }
  void operator()(double, std::span<const double> y, num::Matrix& jac) const {
    model.jacobian_at(y, mult, jac);
  }
};

namespace {

/// A converged Newton root must also be physically meaningful: finite,
/// non-negative, and inside the conserved-pool budgets.  (The dead state has
/// a one-parameter family of roots with arbitrary ATP because all consumers
/// vanish; those are rejected here.)
bool physical_state(std::span<const double> y, const C3Config& c) {
  if (!num::all_finite(y)) return false;
  for (double v : y) {
    if (v < -1e-9) return false;
  }
  return y[kAtp] <= c.adenylate_total + 1e-6;
}

/// Uptake above which a root/cycle counts as a LIVING solution (see
/// steady_state's ladder).
constexpr double kAliveUptake = 0.5;

}  // namespace

SteadyState C3Model::solve_from(std::span<const double> start,
                                std::span<const double> mult,
                                bool allow_fallback) const {
  // The solver callables are non-owning FunctionRefs: `at` must be a NAMED
  // local that outlives every solver call below.
  const AtPartition at{*this, mult};
  const num::NonlinearSystem system = at;

  // Rate magnitudes are O(10) mmol/l/s; a residual of 1e-6 is already ~7
  // orders below the fluxes of interest and the numeric-Jacobian Newton
  // cannot reliably descend much further.
  num::NewtonOptions nopts;
  nopts.max_iterations = 60;
  nopts.tolerance = 2e-3;
  nopts.state_floor = 1e-12;
  nopts.chord_max_age = std::max<std::size_t>(config_.chord_max_age, 1);
  if (config_.analytic_jacobian) nopts.jacobian = at;

  SteadyState ss;
  const auto tally = [&ss](const num::NewtonResult& r) {
    ss.newton_iterations += r.iterations;
    ss.rhs_evaluations += r.rhs_evaluations;
    ss.jacobian_factorizations += r.jacobian_factorizations;
  };
  num::NewtonResult newton = num::solve_newton(system, start, nopts);
  tally(newton);
  bool accepted = newton.converged && physical_state(newton.x, config_);

  if (!accepted) {
    // Plain Newton's line search stalls on this system for starts outside
    // the immediate basin; pseudo-transient continuation is globally robust
    // at the same per-iteration cost.
    num::PtcOptions popts;
    popts.max_iterations = 150;
    popts.tolerance = nopts.tolerance;
    popts.state_floor = nopts.state_floor;
    popts.initial_timestep = 0.5;
    popts.jacobian = nopts.jacobian;
    popts.chord_max_age = nopts.chord_max_age;
    num::NewtonResult ptc = num::solve_pseudo_transient(system, start, popts);
    tally(ptc);
    if (!ptc.converged && ptc.residual_norm < 1.0) {
      // PTC rode the transient into the fixed point's neighbourhood; plain
      // Newton closes the remaining digits.
      num::NewtonResult polish = num::solve_newton(system, ptc.x, nopts);
      tally(polish);
      if (polish.converged) ptc = std::move(polish);
    }
    if (ptc.converged && physical_state(ptc.x, config_)) {
      newton = std::move(ptc);
      accepted = true;
    }
  }

  if (!accepted && allow_fallback) {
    // The transient dynamics can orbit the fixed point (photosynthetic
    // oscillations), so integrate in legs — far enough to leave the
    // cold-start region — and let Newton land on the fixed point from there.
    ss.used_integration_fallback = true;
    // The system is stiff (fast PGA-reduction equilibria vs slow pool
    // modes); the linearly implicit Rosenbrock method takes ~100 steps per
    // leg where the explicit pair needs tens of thousands.
    num::OdeOptions iopts;
    iopts.abs_tol = 1e-7;
    iopts.rel_tol = 1e-5;
    iopts.initial_step = 1e-3;
    iopts.state_floor = 0.0;
    iopts.max_step = 50.0;
    if (config_.analytic_jacobian) iopts.jacobian = at;
    const num::OdeRhs rhs = at;

    num::Vec y(start.begin(), start.end());
    double t = 0.0;
    const std::vector<double> legs = thorough_fallback_
                                         ? std::vector<double>{300.0, 2000.0, 8000.0, 25000.0}
                                         : std::vector<double>{300.0, 2000.0};
    for (const double t_next : legs) {
      const num::OdeResult leg = num::integrate(rhs, t, y, t_next, iopts);
      y = leg.y;
      t = leg.t;
      if (!leg.success || !num::all_finite(y)) break;
      // Step-size continuation: later legs resume at the controller's step
      // instead of re-ramping from the cold initial_step.
      if (leg.last_step > 0.0) iopts.initial_step = leg.last_step;
      num::NewtonResult polished = num::solve_newton(system, y, nopts);
      tally(polished);
      if (polished.converged && physical_state(polished.x, config_)) {
        newton = std::move(polished);
        accepted = true;
        break;
      }
      if (polished.residual_norm < newton.residual_norm &&
          physical_state(polished.x, config_)) {
        newton = std::move(polished);
      }
    }
  }

  ss.state = std::move(newton.x);
  ss.residual = newton.residual_norm;
  ss.converged = accepted;
  ss.co2_uptake = ss.converged ? co2_uptake(ss.state, mult) : 0.0;
  return ss;
}

SteadyState C3Model::quick_attempt(std::span<const double> start,
                                   std::span<const double> mult,
                                   const num::LuFactorization* warm_lu) const {
  const AtPartition at{*this, mult};
  const num::NonlinearSystem system = at;
  num::NewtonOptions nopts;
  nopts.max_iterations = 30;
  nopts.tolerance = 2e-3;
  nopts.state_floor = 1e-12;
  nopts.chord_max_age = std::max<std::size_t>(config_.chord_max_age, 1);
  nopts.warm_lu = warm_lu;
  if (config_.analytic_jacobian) nopts.jacobian = at;
  num::NewtonResult newton = num::solve_newton(system, start, nopts);
  SteadyState ss;
  ss.newton_iterations = newton.iterations;
  ss.rhs_evaluations = newton.rhs_evaluations;
  ss.jacobian_factorizations = newton.jacobian_factorizations;
  ss.converged = newton.converged && physical_state(newton.x, config_);
  ss.residual = newton.residual_norm;
  ss.state = std::move(newton.x);
  ss.co2_uptake = ss.converged ? co2_uptake(ss.state, mult) : 0.0;
  return ss;
}

num::Vec C3Model::warm_extrapolated_start(const WarmStartPool::Entry& entry,
                                          std::span<const double> mult) const {
  num::Vec start(entry.state);
  WarmStartPool::RootCache& cache = *entry.root_cache;
  std::call_once(cache.once, [&] {
    // Pure function of the entry: whichever thread builds it, same LU.
    num::Matrix jac;
    jacobian_at(entry.state, entry.key, jac);
    cache.lu = num::LuFactorization::compute(jac);
    cache.valid = cache.lu.has_value();
  });
  if (!cache.valid) return start;
  // F(y*, mult): every rate law is linear in its multiplier, so this equals
  // dF/dmult * (mult - key) up to the entry's own residual (<= solver tol).
  num::Vec f(kNumMetabolites);
  derivatives(entry.state, mult, f);
  const num::Vec step = cache.lu->solve(f);
  if (!num::all_finite(step)) return start;
  num::axpy(start, -1.0, step);
  for (double& v : start) v = std::max(v, 1e-12);
  if (!num::all_finite(start)) return num::Vec(entry.state);
  return start;
}

void C3Model::note_living_solution(std::span<const double> mult,
                                   const num::Vec& state) const {
  warm_pool_.record(mult, state);
  // Outside core parallel regions there is no epoch barrier coming, and no
  // determinism-across-thread-counts contract to protect either: committing
  // right away keeps sequential callers (control analysis, A-Ci curves,
  // ad-hoc scans) warm-starting from the candidate they just solved.
  // Inside a region the entry stays staged until the engine's serial
  // barrier calls commit_warm_starts().
  if (!core::in_deterministic_region()) warm_pool_.commit();
}

void C3Model::commit_warm_starts() const {
  // Inside a region the commit waits for the caller's serial barrier.
  if (core::in_deterministic_region()) return;
  warm_pool_.commit();
}

bool C3Model::pool_exact_lookup(std::span<const double> mult,
                                SteadyState& out) const {
  // Exact repeat of a pooled candidate: the committed root IS this
  // candidate's living root, so return it directly instead of re-iterating
  // Newton from it.  Recomputing the uptake from (state, mult) reproduces
  // the originally reported value bitwise (the accepting attempt computed
  // it the same way), so a repeated candidate reports exactly what it
  // reported the first time.  The root is NOT restaged: a repeat leaves the
  // pool's pending set, and hence its aging, untouched.
  //
  // The hit fills `out` without allocating (beyond first-use growth of
  // out.state and the thread workspace): num::assign reuses capacity and
  // the residual scratch comes from the arena.  The allocation sentinel
  // holds this path to literally zero heap allocations once warm.
  const WarmStartPool::Hit hit = warm_pool_.nearest_entry(mult);
  if (hit.entry == nullptr || !num::bitwise_equal(hit.entry->key, mult)) {
    return false;
  }
  num::assign(out.state, hit.entry->state);
  out.co2_uptake = co2_uptake(out.state, mult);
  num::Workspace& ws = num::Workspace::thread_local_instance();
  num::ScratchVec dydt(ws, kNumMetabolites);
  derivatives(out.state, mult, dydt.get());
  out.residual = num::norm_inf(dydt.get());
  out.converged = true;
  out.newton_iterations = 0;
  out.rhs_evaluations = 1;
  out.jacobian_factorizations = 0;
  out.warm_started = true;
  out.pool_exact_hit = true;
  out.oscillatory = false;
  out.used_integration_fallback = false;
  return true;
}

void C3Model::steady_state_into(std::span<const double> mult,
                                std::span<const double> start_hint,
                                SteadyState& out) const {
  // With a caller hint the full ladder must run (the hint attempt comes
  // before the exact-key short circuits, and its work lands in the
  // counters); without one, an exact pool hit answers in place and
  // allocation-free.
  if (start_hint.empty() && pool_exact_lookup(mult, out)) return;
  out = steady_state(mult, start_hint);
}

SteadyState C3Model::steady_state(std::span<const double> mult,
                                  std::span<const double> start_hint) const {
  // The collapsed ("dead leaf") state is a genuine root of the kinetics, so
  // a start inside its basin converges to it even when the candidate also
  // has a healthy attractor.  The search therefore prefers LIVING roots:
  // every cheap Newton start is tried until one yields positive fixation,
  // the integration fallback gets the next say, and a dead root is reported
  // only when nothing else converged.
  std::optional<SteadyState> dead;
  // Work counters accumulate over the WHOLE ladder, whichever attempt wins.
  std::size_t iterations = 0, rhs = 0, factorizations = 0;

  auto finalize = [&](SteadyState ss) {
    ss.newton_iterations = iterations;
    ss.rhs_evaluations = rhs;
    ss.jacobian_factorizations = factorizations;
    return ss;
  };
  auto consider = [&](SteadyState ss, bool warm) -> std::optional<SteadyState> {
    iterations += ss.newton_iterations;
    rhs += ss.rhs_evaluations;
    factorizations += ss.jacobian_factorizations;
    if (!ss.converged) return std::nullopt;
    if (ss.co2_uptake > kAliveUptake) {
      // Only genuine roots enter the pool: a limit-cycle AVERAGE is not a
      // steady state, and handing it to a neighbour as a Newton start just
      // burns the quick attempt before the ladder runs.
      if (!ss.oscillatory) note_living_solution(mult, ss.state);
      ss.warm_started = warm;
      return ss;
    }
    if (!dead) dead = std::move(ss);
    return std::nullopt;
  };

  // 1. Cheap Newton attempts: the caller's hint (e.g. control analysis
  //    probing around a base it already solved), the nearest committed
  //    warm-start-pool entry — a pure function of (candidate, snapshot), so
  //    parallel batches stay bit-identical for any thread count — then the
  //    anchor ladder.
  if (!start_hint.empty()) {
    if (auto alive = consider(quick_attempt(start_hint, mult), true)) {
      return finalize(std::move(*alive));
    }
  }
  {
    SteadyState exact;
    if (pool_exact_lookup(mult, exact)) {
      rhs += exact.rhs_evaluations;
      return finalize(std::move(exact));
    }
  }
  {
    const WarmStartPool::Hit hit = warm_pool_.nearest_entry(mult);
    if (hit.entry != nullptr) {
      const num::Vec start = warm_extrapolated_start(*hit.entry, mult);
      const WarmStartPool::RootCache& cache = *hit.entry->root_cache;
      const num::LuFactorization* warm_lu =
          cache.valid ? &*cache.lu : nullptr;
      if (auto alive = consider(quick_attempt(start, mult, warm_lu), true)) {
        return finalize(std::move(*alive));
      }
    }
  }
  for (const num::Vec& anchor : anchors_) {
    if (auto alive =
            consider(solve_from(anchor, mult, /*allow_fallback=*/false), false)) {
      return finalize(std::move(*alive));
    }
  }

  // 2. Expensive path: integrate the natural transient under the candidate
  //    kinetics — this decides the basin honestly.
  const num::Vec& start = natural_.converged ? natural_.state : default_initial_state();
  SteadyState ss = solve_from(start, mult, /*allow_fallback=*/false);
  if (auto alive = consider(std::move(ss), false)) {
    return finalize(std::move(*alive));
  }

  // 3. Oscillation handling: near the model's Hopf boundary the kinetics
  //    orbit a limit cycle and no solver can settle.  Average one window of
  //    the orbit — the measurable assimilation rate — and report that.
  {
    SteadyState cyc = cycle_average(start, mult);
    if (cyc.converged) {
      if (cyc.co2_uptake > kAliveUptake) return finalize(std::move(cyc));
      if (!dead) dead = std::move(cyc);
    }
  }

  if (dead) return finalize(std::move(*dead));
  // Nothing converged: return the last attempt's diagnostics.
  SteadyState last = solve_from(start, mult, /*allow_fallback=*/false);
  iterations += last.newton_iterations;
  rhs += last.rhs_evaluations;
  factorizations += last.jacobian_factorizations;
  return finalize(std::move(last));
}

namespace {

// The cycle-average window, in model time units (s).  Fixed numerics, not
// options: every oscillatory answer and golden fingerprint depends on them.
/// Transient skipped before sampling starts.
constexpr double kCycleTransient = 400.0;
/// Samples averaged, one at the end of each kCycleSampleDt leg.
constexpr int kCycleSamples = 40;
/// Spacing of the samples (the window spans kCycleSamples * kCycleSampleDt).
constexpr double kCycleSampleDt = 10.0;
/// ROW2 tolerances on the orbit, a decade looser than the steady-state
/// fallback's integration legs.
constexpr double kCycleAbsTol = 1e-6;
constexpr double kCycleRelTol = 1e-4;
/// Largest ROW2 step; binds only on the transient, the sample legs are
/// shorter.
constexpr double kCycleMaxStep = 20.0;

}  // namespace

SteadyState C3Model::cycle_average(std::span<const double> start,
                                   std::span<const double> mult) const {
  num::OdeOptions iopts;
  iopts.abs_tol = kCycleAbsTol;
  iopts.rel_tol = kCycleRelTol;
  iopts.initial_step = 1e-3;
  iopts.state_floor = 0.0;
  iopts.max_step = kCycleMaxStep;
  const AtPartition at{*this, mult};
  if (config_.analytic_jacobian) iopts.jacobian = at;
  const num::OdeRhs rhs = at;

  SteadyState ss;
  // Skip the initial transient, then average over a sampling window.
  num::Vec y(start.begin(), start.end());
  num::OdeResult leg = num::integrate(rhs, 0.0, y, kCycleTransient, iopts);
  if (!leg.success || !num::all_finite(leg.y)) return ss;
  y = leg.y;

  num::Vec mean_state(kNumMetabolites, 0.0);
  double mean_uptake = 0.0;
  double t = kCycleTransient;
  for (int s = 0; s < kCycleSamples; ++s) {
    // Step-size continuation across sampling windows: without it every
    // window re-ramps the adaptive step from 1e-3, which used to cost more
    // steps than the windows themselves.
    if (leg.last_step > 0.0) iopts.initial_step = leg.last_step;
    leg = num::integrate(rhs, t, y, t + kCycleSampleDt, iopts);
    if (!leg.success || !num::all_finite(leg.y)) return ss;
    y = leg.y;
    t = leg.t;
    num::add_inplace(mean_state, y);
    mean_uptake += co2_uptake(y, mult);
  }
  num::scale_inplace(mean_state, 1.0 / kCycleSamples);
  mean_uptake /= kCycleSamples;

  ss.state = std::move(mean_state);
  ss.co2_uptake = mean_uptake;
  num::Vec d(kNumMetabolites);
  derivatives(ss.state, mult, d);
  ss.residual = num::norm_inf(d);
  ss.converged = physical_state(ss.state, config_);
  ss.oscillatory = true;
  ss.used_integration_fallback = true;
  return ss;
}

std::optional<double> C3Model::steady_uptake(std::span<const double> mult) const {
  const SteadyState ss = steady_state(mult);
  if (!ss.converged) return std::nullopt;
  return ss.co2_uptake;
}

double C3Model::nitrogen(std::span<const double> mult) const {
  return total_nitrogen(mult, config_.nitrogen_scale);
}

}  // namespace rmp::kinetics
