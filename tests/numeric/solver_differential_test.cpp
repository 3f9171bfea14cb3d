// Property harness for the kinetic solve path over a randomized candidate
// stream that drifts from the natural partition into the model's Hopf
// (oscillatory) shell — the same shape the kinetics bench replays.
//
// Contracts:
//   * every candidate ends in one of three classes: a converged living
//     root (settled), a converged cycle average (oscillatory), or a
//     converged root below the alive-leaf threshold (dead); its state and
//     uptake are finite;
//   * the stream exercises both paths: more than half the candidates
//     settle, and the oscillatory tail is reached;
//   * an exact repeat of a settled candidate is answered by the warm pool
//     bitwise;
//   * run in generation batches under core::parallel_for with a pool commit
//     at every batch barrier (what the engines do), the per-candidate
//     results are bit-identical at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/parallel.hpp"
#include "kinetics/c3model.hpp"
#include "numeric/rng.hpp"
#include "numeric/vec.hpp"

namespace rmp::kinetics {
namespace {

/// Uptake above which the solve ladder counts a root as living.
constexpr double kAliveUptake = 0.5;  // umol m^-2 s^-1

constexpr std::size_t kGenerations = 10;
constexpr std::size_t kBatch = 12;

/// The bench's drifting stream, scaled down: generations track from the
/// natural partition toward an up-regulated Calvin mix whose tail sits in
/// the model's Hopf (oscillatory) shell.
std::vector<num::Vec> make_stream(std::size_t generations, std::size_t batch,
                                  std::uint64_t seed) {
  num::Rng rng(seed);
  num::Vec target(kNumEnzymes, 1.0);
  for (std::size_t e = 0; e < kNumEnzymes; ++e) {
    target[e] = 1.2 + 0.08 * static_cast<double>(e % 5);
  }
  target[kRubisco] = 2.6;
  target[kSbpase] = 2.8;
  target[kPrk] = 2.0;
  target[kFbpase] = 2.2;
  std::vector<num::Vec> stream;
  stream.reserve(generations * batch);
  for (std::size_t g = 0; g < generations; ++g) {
    const double a =
        generations > 1
            ? static_cast<double>(g) / static_cast<double>(generations - 1)
            : 1.0;
    for (std::size_t i = 0; i < batch; ++i) {
      num::Vec mult(kNumEnzymes);
      for (std::size_t e = 0; e < kNumEnzymes; ++e) {
        const double center = 1.0 + a * (target[e] - 1.0);
        mult[e] = std::clamp(center * (1.0 + rng.normal(0.0, 0.05)), 0.02, 5.0);
      }
      stream.push_back(std::move(mult));
    }
  }
  return stream;
}

/// Solves the stream one generation per parallel_for batch, committing the
/// warm pool at each batch barrier.
std::vector<SteadyState> solve_in_epochs(const C3Model& model,
                                         const std::vector<num::Vec>& stream,
                                         std::size_t threads) {
  std::vector<SteadyState> out(stream.size());
  for (std::size_t begin = 0; begin < stream.size(); begin += kBatch) {
    const std::size_t n = std::min(kBatch, stream.size() - begin);
    core::parallel_for(n, threads, [&](std::size_t i) {
      out[begin + i] = model.steady_state(stream[begin + i]);
    });
    model.commit_warm_starts();
  }
  return out;
}

TEST(SolverDifferentialTest, DriftingStreamSettlesOrCyclesAndRepeatsHitThePool) {
  const C3Model model;
  const auto stream = make_stream(kGenerations, kBatch, 20260808);
  const std::vector<SteadyState> results = solve_in_epochs(model, stream, 1);

  std::size_t settled = 0, oscillatory = 0;
  std::size_t last_settled = stream.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SteadyState& ss = results[i];
    ASSERT_TRUE(ss.converged) << "candidate " << i;
    EXPECT_TRUE(num::all_finite(ss.state)) << "candidate " << i;
    EXPECT_TRUE(std::isfinite(ss.co2_uptake)) << "candidate " << i;
    if (ss.oscillatory) {
      ++oscillatory;
    } else if (ss.co2_uptake > kAliveUptake) {
      ++settled;
      last_settled = i;
    }  // else: a dead root
  }
  EXPECT_GT(settled, stream.size() / 2);
  EXPECT_GT(oscillatory, 0u);

  // The most recently recorded living root is still pooled: its repeat is
  // an exact pool hit that reproduces the original answer bitwise.
  ASSERT_LT(last_settled, stream.size());
  const SteadyState& first = results[last_settled];
  const SteadyState repeat = model.steady_state(stream[last_settled]);
  EXPECT_TRUE(repeat.pool_exact_hit);
  EXPECT_TRUE(repeat.converged);
  EXPECT_FALSE(repeat.oscillatory);
  EXPECT_TRUE(num::bitwise_equal(repeat.state, first.state));
  EXPECT_EQ(repeat.co2_uptake, first.co2_uptake);
}

TEST(SolverDifferentialTest, EpochBatchesAreThreadCountInvariant) {
  // A fresh model per width: the warm pool is model state.
  const auto stream = make_stream(kGenerations, kBatch, 20260808);
  const C3Model serial_model;
  const C3Model wide_model;
  const std::vector<SteadyState> serial = solve_in_epochs(serial_model, stream, 1);
  const std::vector<SteadyState> wide = solve_in_epochs(wide_model, stream, 4);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].converged, wide[i].converged) << "candidate " << i;
    EXPECT_EQ(serial[i].oscillatory, wide[i].oscillatory) << "candidate " << i;
    EXPECT_EQ(serial[i].pool_exact_hit, wide[i].pool_exact_hit) << "candidate " << i;
    EXPECT_TRUE(num::bitwise_equal(serial[i].state, wide[i].state))
        << "candidate " << i;
    EXPECT_EQ(serial[i].co2_uptake, wide[i].co2_uptake) << "candidate " << i;
    EXPECT_EQ(serial[i].residual, wide[i].residual) << "candidate " << i;
  }
}

}  // namespace
}  // namespace rmp::kinetics
