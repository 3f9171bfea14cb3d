// Reference oracle for moo::Archive: the naive merge, a per-candidate linear
// dominance scan with sorted insertion, O(N * B) per batch.  Same
// transaction semantics as the library (moo/archive.hpp): infeasible
// candidates and objective duplicates dropped, first offer wins, one
// single-pass crowding prune per offer_all.  Tests compare the library's
// batch merge against it fingerprint for fingerprint.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "moo/dominance.hpp"
#include "moo/individual.hpp"
#include "moo/state.hpp"

namespace rmp::moo::oracle {

class NaiveArchive {
 public:
  explicit NaiveArchive(std::size_t capacity = 0) : capacity_(capacity) {}

  void offer_all(std::span<const Individual> candidates) {
    for (const Individual& c : candidates) {
      if (!c.feasible()) continue;
      bool rejected = false;
      for (const Individual& m : members_) {
        if (dominates(m.f, c.f) || m.f == c.f) {
          rejected = true;
          break;
        }
      }
      if (rejected) continue;
      std::erase_if(members_,
                    [&](const Individual& m) { return dominates(c.f, m.f); });
      members_.insert(
          std::upper_bound(members_.begin(), members_.end(), c, canonical_less), c);
    }
    if (capacity_ != 0 && members_.size() > capacity_) prune();
  }

  [[nodiscard]] std::span<const Individual> solutions() const { return members_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return moo::fingerprint(members_); }

 private:
  static bool canonical_less(const Individual& a, const Individual& b) {
    return std::lexicographical_compare(a.f.begin(), a.f.end(), b.f.begin(),
                                        b.f.end());
  }

  /// Evicts the size-capacity most crowded members in one pass; crowding
  /// ties evict the canonically-later member.
  void prune() {
    std::vector<std::size_t> all(members_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    assign_crowding_distance(members_, all);
    std::vector<std::size_t> order = all;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (members_[a].crowding != members_[b].crowding) {
        return members_[a].crowding < members_[b].crowding;
      }
      return a > b;
    });
    std::vector<bool> evict(members_.size(), false);
    for (std::size_t k = 0; k < members_.size() - capacity_; ++k) evict[order[k]] = true;
    std::vector<Individual> kept;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (!evict[i]) kept.push_back(std::move(members_[i]));
    }
    members_ = std::move(kept);
  }

  std::size_t capacity_;
  std::vector<Individual> members_;  ///< canonical order, unique objectives
};

}  // namespace rmp::moo::oracle
