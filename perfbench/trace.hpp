// Outside-in tracing for the benchmark: a pass-through moo::Problem decorator
// that times every call the pipeline makes into a problem, and the recorder
// that folds those timings into per-layer figures.
//
// Nothing here reaches into rmp's internals.  The decorator is registered in
// api::ProblemRegistry::global() under its own name ("perfbench-traced-<k>"),
// so api::Session and api::JobServer build it through the ordinary factory
// path; it forwards every virtual to the problem the inner reference builds.
// A traced run's archive, fingerprint and EvalStats are therefore the
// untraced run's, bit for bit (the benchmark checks this on every traced
// run).
//
// What the decorator sees, per call:
//   evaluate      busy time, per thread and per problem instance; for the
//                 kinetic problem the path, read from the inner problem's
//                 last_result_memoizable() on the same thread straight after
//                 the call (false = the limit-cycle path, true = settled),
//                 and whether the result was infeasible (violation > 0);
//   repair        busy time (the Geobacter null-space projection);
//   commit_epoch  time at serial barriers (outside any parallel region).
//
// Stages are told apart by counting serial commits per instance: the first
// closes epoch 0 (Session construction), the next `generations` close the
// optimize epochs, and every call after that belongs to the robustness
// stage.  An epoch's span runs from the instance's first call after the
// previous serial commit to the end of the next one.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "moo/problem.hpp"

namespace perfbench {

enum class Layer { kKinetics, kFba, kOther };

/// Per-thread counters, indexed by Counter.  Only the owning thread writes;
/// readers fold them at serial points (relaxed atomics keep that race-free).
enum Counter : std::size_t {
  kKinSettledCalls,
  kKinCycleCalls,
  kKinInfeasibleCalls,
  kKinSettledNs,
  kKinCycleNs,
  kKinCommitNs,
  kFbaCalls,
  kFbaNs,
  kFbaRepairCalls,
  kFbaRepairNs,
  kRobustnessCalls,
  kRobustnessNs,
  kNumCounters
};

inline constexpr std::size_t kMaxInstances = 16;

/// One optimize epoch of one problem instance.
struct EpochSample {
  double wall_s = 0.0;
  /// evaluate + repair busy seconds of this instance, per thread slot.
  std::vector<double> busy_s;
  std::size_t threads = 1;  ///< the spec's thread budget
};

/// What the recorder knows about one decorated problem instance.
struct InstanceInfo {
  Layer layer = Layer::kOther;
  std::size_t generations = 0;
  std::size_t threads = 1;
  double factory_s = 0.0;      ///< inner factory call
  double init_s = 0.0;         ///< factory return -> end of epoch-0 commit
};

class Recorder {
 public:
  static Recorder& global();

  /// Zeroes every counter and forgets instances and samples.  Call only when
  /// no traced problem is being evaluated.
  void reset();

  [[nodiscard]] std::int64_t counter(Counter c) const;
  /// Per-thread-slot evaluate + repair busy nanoseconds, summed over all
  /// instances or for one instance.
  [[nodiscard]] std::vector<std::int64_t> busy_by_thread() const;
  [[nodiscard]] std::vector<std::int64_t> busy_by_thread(std::size_t instance) const;
  /// Every kinetic cycle-path evaluate() latency, in milliseconds.
  [[nodiscard]] std::vector<double> cycle_call_ms() const;
  [[nodiscard]] std::vector<EpochSample> epochs() const;
  [[nodiscard]] std::vector<InstanceInfo> instances() const;

 private:
  friend class TracedProblem;
  struct Slot {
    std::array<std::atomic<std::int64_t>, kNumCounters> counters{};
    std::array<std::atomic<std::int64_t>, kMaxInstances> busy_ns{};
    std::vector<double> cycle_ms;  ///< owner-thread appends only
  };
  struct Instance {
    InstanceInfo info;
    std::atomic<std::size_t> serial_commits{0};
    std::atomic<bool> span_open{false};
    std::atomic<std::int64_t> span_start_ns{0};
    std::int64_t factory_end_ns = 0;
    std::vector<std::int64_t> busy_at_span_start;  ///< serial-point snapshot
  };

  friend std::string register_traced(const std::string&, std::size_t, std::size_t);
  Slot& slot();
  std::size_t add_instance(InstanceInfo info, std::int64_t factory_end_ns);
  void record_epoch(EpochSample sample);

  mutable std::mutex mutex_;
  std::deque<Slot> slots_;          ///< stable addresses, never shrinks
  std::deque<Instance> instances_;  ///< guarded by mutex_ for growth
  std::vector<EpochSample> epochs_;
};

/// The pass-through decorator.  Construct through register_traced().
class TracedProblem final : public rmp::moo::Problem {
 public:
  TracedProblem(std::shared_ptr<rmp::moo::Problem> inner, std::size_t instance);

  [[nodiscard]] std::size_t num_variables() const override;
  [[nodiscard]] std::size_t num_objectives() const override;
  [[nodiscard]] std::span<const double> lower_bounds() const override;
  [[nodiscard]] std::span<const double> upper_bounds() const override;
  double evaluate(std::span<const double> x,
                  std::span<double> objectives) const override;
  [[nodiscard]] std::string name() const override;
  void repair(rmp::num::Vec& x) const override;
  std::size_t suggest_initial(std::span<rmp::num::Vec> out,
                              rmp::num::Rng& rng) const override;
  void commit_epoch() const override;
  [[nodiscard]] rmp::moo::EvalStats eval_stats() const override;
  bool set_prescreen(bool enabled) const override;
  void save_state(rmp::core::Json& out) const override;
  void load_state(const rmp::core::Json& doc) const override;
  [[nodiscard]] bool last_result_memoizable() const override;

 private:
  void open_span() const;

  std::shared_ptr<rmp::moo::Problem> inner_;
  std::size_t instance_;
  Recorder::Instance& state_;
  Layer layer_;
};

/// Registers "perfbench-traced-<k>" in ProblemRegistry::global(): a factory
/// that times ProblemRegistry::global().make(inner_ref) and wraps the result
/// in a TracedProblem.  `generations` and `threads` are the spec's (they
/// tell the stages apart and scale the imbalance).  Returns the name.
std::string register_traced(const std::string& inner_ref, std::size_t generations,
                            std::size_t threads);

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
