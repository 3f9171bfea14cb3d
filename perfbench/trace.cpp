#include "trace.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "core/parallel.hpp"

namespace perfbench {

namespace {

thread_local void* t_slot = nullptr;

void add(std::atomic<std::int64_t>& cell, std::int64_t v) {
  // Single writer per cell: a relaxed load + store is enough.
  cell.store(cell.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder& Recorder::global() {
  static Recorder* instance = new Recorder();
  return *instance;
}

Recorder::Slot& Recorder::slot() {
  if (t_slot == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    t_slot = &slots_.emplace_back();
  }
  return *static_cast<Slot*>(t_slot);
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& s : slots_) {
    for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    for (auto& c : s.busy_ns) c.store(0, std::memory_order_relaxed);
    s.cycle_ms.clear();
  }
  instances_.clear();
  epochs_.clear();
}

std::int64_t Recorder::counter(Counter c) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const Slot& s : slots_) total += s.counters[c].load(std::memory_order_relaxed);
  return total;
}

std::vector<std::int64_t> Recorder::busy_by_thread() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> out;
  for (const Slot& s : slots_) {
    std::int64_t total = 0;
    for (const auto& c : s.busy_ns) total += c.load(std::memory_order_relaxed);
    out.push_back(total);
  }
  return out;
}

std::vector<std::int64_t> Recorder::busy_by_thread(std::size_t instance) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> out;
  for (const Slot& s : slots_) {
    out.push_back(s.busy_ns[instance].load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<double> Recorder::cycle_call_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Slot& s : slots_) out.insert(out.end(), s.cycle_ms.begin(), s.cycle_ms.end());
  return out;
}

std::vector<EpochSample> Recorder::epochs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epochs_;
}

std::vector<InstanceInfo> Recorder::instances() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<InstanceInfo> out;
  for (const Instance& i : instances_) out.push_back(i.info);
  return out;
}

std::size_t Recorder::add_instance(InstanceInfo info, std::int64_t factory_end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (instances_.size() >= kMaxInstances) {
    throw std::runtime_error("perfbench: more than kMaxInstances traced problems");
  }
  Instance& inst = instances_.emplace_back();
  inst.info = std::move(info);
  inst.factory_end_ns = factory_end_ns;
  return instances_.size() - 1;
}

void Recorder::record_epoch(EpochSample sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  epochs_.push_back(std::move(sample));
}

TracedProblem::TracedProblem(std::shared_ptr<rmp::moo::Problem> inner,
                             std::size_t instance)
    : inner_(std::move(inner)),
      instance_(instance),
      state_(Recorder::global().instances_[instance]),
      layer_(state_.info.layer) {}

std::size_t TracedProblem::num_variables() const { return inner_->num_variables(); }
std::size_t TracedProblem::num_objectives() const { return inner_->num_objectives(); }
std::span<const double> TracedProblem::lower_bounds() const {
  return inner_->lower_bounds();
}
std::span<const double> TracedProblem::upper_bounds() const {
  return inner_->upper_bounds();
}
std::string TracedProblem::name() const { return inner_->name(); }
std::size_t TracedProblem::suggest_initial(std::span<rmp::num::Vec> out,
                                           rmp::num::Rng& rng) const {
  return inner_->suggest_initial(out, rng);
}
rmp::moo::EvalStats TracedProblem::eval_stats() const { return inner_->eval_stats(); }
bool TracedProblem::set_prescreen(bool enabled) const {
  return inner_->set_prescreen(enabled);
}
void TracedProblem::save_state(rmp::core::Json& out) const { inner_->save_state(out); }
void TracedProblem::load_state(const rmp::core::Json& doc) const {
  inner_->load_state(doc);
}
bool TracedProblem::last_result_memoizable() const {
  return inner_->last_result_memoizable();
}

void TracedProblem::open_span() const {
  const std::size_t commits = state_.serial_commits.load(std::memory_order_relaxed);
  if (commits == 0 || commits > state_.info.generations) return;
  if (state_.span_open.load(std::memory_order_relaxed)) return;
  bool expected = false;
  if (state_.span_open.compare_exchange_strong(expected, true)) {
    state_.span_start_ns.store(now_ns(), std::memory_order_relaxed);
  }
}

double TracedProblem::evaluate(std::span<const double> x,
                               std::span<double> objectives) const {
  open_span();
  const std::int64_t start = now_ns();
  const double violation = inner_->evaluate(x, objectives);
  const std::int64_t ns = now_ns() - start;
  // Same thread, nothing in between: the inner problem's per-thread flag
  // still describes this call.
  const bool memoizable = inner_->last_result_memoizable();

  Recorder::Slot& s = Recorder::global().slot();
  add(s.busy_ns[instance_], ns);
  if (state_.serial_commits.load(std::memory_order_relaxed) > state_.info.generations) {
    add(s.counters[kRobustnessCalls], 1);
    add(s.counters[kRobustnessNs], ns);
  }
  switch (layer_) {
    case Layer::kKinetics:
      if (memoizable) {
        add(s.counters[kKinSettledCalls], 1);
        add(s.counters[kKinSettledNs], ns);
      } else {
        add(s.counters[kKinCycleCalls], 1);
        add(s.counters[kKinCycleNs], ns);
        s.cycle_ms.push_back(static_cast<double>(ns) * 1e-6);
      }
      if (violation > 0.0) add(s.counters[kKinInfeasibleCalls], 1);
      break;
    case Layer::kFba:
      add(s.counters[kFbaCalls], 1);
      add(s.counters[kFbaNs], ns);
      break;
    case Layer::kOther:
      break;
  }
  return violation;
}

void TracedProblem::repair(rmp::num::Vec& x) const {
  open_span();
  const std::int64_t start = now_ns();
  inner_->repair(x);
  const std::int64_t ns = now_ns() - start;
  Recorder::Slot& s = Recorder::global().slot();
  add(s.busy_ns[instance_], ns);
  if (layer_ == Layer::kFba) {
    add(s.counters[kFbaRepairCalls], 1);
    add(s.counters[kFbaRepairNs], ns);
  }
}

void TracedProblem::commit_epoch() const {
  // Inside a parallel region the engines' commits are deferred no-ops; only
  // the serial barrier counts (and only there is the snapshot race-free).
  if (rmp::core::in_deterministic_region()) {
    inner_->commit_epoch();
    return;
  }
  const std::int64_t start = now_ns();
  inner_->commit_epoch();
  const std::int64_t end = now_ns();

  Recorder& rec = Recorder::global();
  if (layer_ == Layer::kKinetics) {
    add(rec.slot().counters[kKinCommitNs], end - start);
  }
  const std::size_t commits = state_.serial_commits.load(std::memory_order_relaxed);
  if (commits > state_.info.generations) return;  // robustness-stage barrier
  std::vector<std::int64_t> busy = rec.busy_by_thread(instance_);
  if (commits == 0) {
    state_.info.init_s = static_cast<double>(end - state_.factory_end_ns) * 1e-9;
  } else {
    EpochSample sample;
    const std::int64_t span_start = state_.span_open.load(std::memory_order_relaxed)
                                        ? state_.span_start_ns.load(std::memory_order_relaxed)
                                        : start;
    sample.wall_s = static_cast<double>(end - span_start) * 1e-9;
    sample.threads = state_.info.threads;
    sample.busy_s.resize(busy.size(), 0.0);
    for (std::size_t t = 0; t < busy.size(); ++t) {
      const std::int64_t before =
          t < state_.busy_at_span_start.size() ? state_.busy_at_span_start[t] : 0;
      sample.busy_s[t] = static_cast<double>(busy[t] - before) * 1e-9;
    }
    rec.record_epoch(std::move(sample));
  }
  state_.busy_at_span_start = std::move(busy);
  state_.span_open.store(false, std::memory_order_relaxed);
  state_.serial_commits.store(commits + 1, std::memory_order_relaxed);
}

std::string register_traced(const std::string& inner_ref, std::size_t generations,
                            std::size_t threads) {
  static std::size_t next = 0;
  const std::string name = "perfbench-traced-" + std::to_string(next++);
  const std::string problem = rmp::api::parse_ref(inner_ref).name;
  const Layer layer = problem == "photosynthesis" ? Layer::kKinetics
                      : problem == "geobacter"    ? Layer::kFba
                                                  : Layer::kOther;
  rmp::api::ProblemRegistry::global().add(
      name, "benchmark trace decorator over " + inner_ref, {},
      [inner_ref, generations, threads, layer](const rmp::api::ParamMap&) {
        const std::int64_t start = now_ns();
        auto inner = rmp::api::ProblemRegistry::global().make(inner_ref);
        const std::int64_t end = now_ns();
        InstanceInfo info;
        info.layer = layer;
        info.generations = generations;
        info.threads = threads;
        info.factory_s = static_cast<double>(end - start) * 1e-9;
        const std::size_t id = Recorder::global().add_instance(std::move(info), end);
        return std::make_shared<TracedProblem>(std::move(inner), id);
      });
  return name;
}

}  // namespace perfbench
