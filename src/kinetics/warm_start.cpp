#include "kinetics/warm_start.hpp"

#include <algorithm>

#include "core/sentinel.hpp"
#include "moo/state.hpp"

namespace rmp::kinetics {

namespace {

bool key_less(const std::shared_ptr<const WarmStartPool::Entry>& a,
              const std::shared_ptr<const WarmStartPool::Entry>& b) {
  return std::lexicographical_compare(a->key.begin(), a->key.end(),
                                      b->key.begin(), b->key.end());
}

}  // namespace

bool WarmStartPool::nearest(std::span<const double> key, num::Vec& start) const {
  const Hit hit = nearest_entry(key);
  if (hit.entry == nullptr) return false;
  start.assign(hit.entry->state.begin(), hit.entry->state.end());
  return true;
}

WarmStartPool::Hit WarmStartPool::nearest_entry(std::span<const double> key) const {
  std::shared_ptr<const Snapshot> snap;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snap = snapshot_;
  }
  Hit hit;
  if (!snap || snap->empty()) return hit;

  std::size_t best = 0;
  double best_d2 = num::dist2((*snap)[0]->key, key);
  for (std::size_t i = 1; i < snap->size(); ++i) {
    const double d2 = num::dist2((*snap)[i]->key, key);
    if (d2 < best_d2) {  // strict: ties keep the lowest index
      best_d2 = d2;
      best = i;
    }
  }
  hit.pin = (*snap)[best];
  hit.entry = hit.pin.get();
  return hit;
}

void WarmStartPool::record(std::span<const double> key,
                           std::span<const double> state) {
  if (capacity_ == 0) return;
  auto e = std::make_shared<Entry>();
  e->key.assign(key.begin(), key.end());
  e->state.assign(state.begin(), state.end());
  e->root_cache = std::make_shared<RootCache>();
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(std::move(e));
}

void WarmStartPool::commit() {
  // A mid-epoch commit would swap the snapshot other items of the same batch
  // are reading their warm starts from — the exact scheduling dependence the
  // epoch discipline exists to prevent.  Callers guard with
  // core::in_deterministic_region(); the sentinel makes the contract hard.
  core::forbid_in_deterministic_region("WarmStartPool::commit");
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return;

  // Canonical order: lexicographic by key, independent of arrival order.
  std::sort(pending_.begin(), pending_.end(), key_less);
  pending_.erase(std::unique(pending_.begin(), pending_.end(),
                             [](const auto& a, const auto& b) {
                               return a->key == b->key;
                             }),
                 pending_.end());

  // Survivors of the old snapshot (entries not superseded by a pending key,
  // which is sorted — binary search), then the fresh batch.  Entries are
  // shared by pointer, so this is O(capacity) pointer copies.
  auto next = std::make_shared<Snapshot>();
  next->reserve((snapshot_ ? snapshot_->size() : 0) + pending_.size());
  if (snapshot_) {
    for (const auto& old : *snapshot_) {
      const bool superseded =
          std::binary_search(pending_.begin(), pending_.end(), old, key_less);
      if (!superseded) next->push_back(old);
    }
  }
  for (auto& e : pending_) next->push_back(std::move(e));
  pending_.clear();

  if (next->size() > capacity_) {
    next->erase(next->begin(),
                next->begin() + static_cast<std::ptrdiff_t>(next->size() - capacity_));
  }
  snapshot_ = std::move(next);
}

void WarmStartPool::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  snapshot_.reset();
  pending_.clear();
}

std::size_t WarmStartPool::snapshot_size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return snapshot_ ? snapshot_->size() : 0;
}

std::size_t WarmStartPool::pending_size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void WarmStartPool::save_state(core::Json& out) const {
  namespace state = moo::state;
  const std::lock_guard<std::mutex> lock(mu_);
  if (!pending_.empty()) {
    throw moo::StateError(
        "checkpoint: WarmStartPool has staged entries — save_state is "
        "epoch-barrier only");
  }
  out.set("kind", "warm_pool");
  core::Json entries = core::Json::array();
  if (snapshot_) {
    for (const auto& e : *snapshot_) {
      core::Json entry = core::Json::object();
      entry.set("key", state::doubles_to_json(e->key));
      entry.set("state", state::doubles_to_json(e->state));
      entries.push_back(std::move(entry));
    }
  }
  out.set("entries", std::move(entries));
}

void WarmStartPool::load_state(const core::Json& doc) {
  namespace state = moo::state;
  state::require_tag(doc, "kind", "warm_pool");
  const core::Json& entries = state::require(doc, "entries");
  if (!entries.is_array()) {
    throw moo::StateError("checkpoint: warm_pool entries must be an array");
  }
  if (entries.size() > capacity_) {
    throw moo::StateError("checkpoint: warm_pool holds " +
                          std::to_string(entries.size()) +
                          " entries but the configured capacity is " +
                          std::to_string(capacity_));
  }
  auto next = std::make_shared<Snapshot>();
  next->reserve(entries.size());
  for (const core::Json& item : entries.items()) {
    auto e = std::make_shared<Entry>();
    e->key = state::doubles_from_json(state::require(item, "key"));
    e->state = state::doubles_from_json(state::require(item, "state"));
    e->root_cache = std::make_shared<RootCache>();
    next->push_back(std::move(e));
  }
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  snapshot_ = next->empty() ? nullptr : std::move(next);
}

}  // namespace rmp::kinetics
