// Bounded external archive of non-dominated solutions — a batch engine.
//
// PMO2 maintains one global archive fed by every island each generation; the
// archive is what the paper reports as "the Pareto-Front found by the
// algorithm" (755 Pareto optimal concentrations etc.).  Pruning removes the
// most crowded members when capacity is exceeded, preserving front extremes.
//
// Batch-merge semantics:
//   * offer_all(batch) is one transaction: infeasible candidates and exact
//     objective-space duplicates (first offer wins) are dropped, the batch's
//     non-dominated survivors are merged against the archive (dominated
//     residents evicted, candidates dominated by — or duplicating — a
//     resident rejected), and capacity pruning runs ONCE at the end of the
//     call, never mid-batch.  offer(c) == offer_all of a 1-span.
//   * Members are stored in canonical order: ascending lexicographic on the
//     objective vector (total, since duplicate objective vectors are
//     rejected).  solutions() and fingerprint() see that order, so the
//     archive's identity depends only on its content.  While the archive
//     stays under capacity, merging the same offer sequence in any batch
//     grouping yields the same fingerprint; once pruning triggers, the
//     grouping IS part of the semantics (pruning runs once per transaction,
//     so different groupings prune at different points).  PMO2 therefore
//     commits islands in a fixed order and grouping at every epoch, which
//     is what keeps it bit-identical across island_threads counts.
//   * Capacity pruning is a single crowding pass: crowding distances are
//     computed once over the whole archive (a single front by construction)
//     and the size-capacity most crowded members are evicted, smallest
//     crowding first; crowding ties evict the canonically-later member.
//     Front extremes carry infinite crowding and survive first.
//
// The merge non-dominated-sorts the incoming batch once (O(B log B) for two
// objectives via the dominance.cpp sweep), then merges two sorted
// staircases in O(N + B).  Its reference oracle, a per-candidate linear
// dominance scan with sorted insertion, lives in tests/moo/archive_oracle.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/json.hpp"
#include "moo/individual.hpp"

namespace rmp::moo {

class Archive {
 public:
  /// capacity == 0 means unbounded.
  explicit Archive(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Offers a candidate: inserted iff feasible-and-non-dominated w.r.t. the
  /// archive (infeasible candidates are never archived).  Dominated residents
  /// are evicted.  Returns true when the candidate was inserted (it may
  /// still fall to the capacity prune that follows).
  bool offer(const Individual& candidate);

  /// Offers a population as one batch transaction (semantics above).
  void offer_all(std::span<const Individual> candidates);

  /// Members in canonical order (ascending lexicographic objectives).
  [[nodiscard]] std::span<const Individual> solutions() const { return members_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// FNV-1a hash over every member's decision vector, objectives and
  /// violation (raw IEEE-754 bits; the scratch rank/crowding fields are
  /// excluded), walked in canonical order.  Because the stored order is
  /// canonical, two archives fingerprint equal iff they hold bit-identical
  /// member sets — the cheap identity asserted by the archipelago
  /// thread-invariance tests and BENCH_pmo2.json.
  [[nodiscard]] std::uint64_t fingerprint() const;

  void clear() { members_.clear(); }

  /// Serializes the members (canonical order is the stored order, so this is
  /// a plain array round-trip) plus the fingerprint for the load-time
  /// cross-check.  Capacity is construction configuration, not state — the
  /// restoring caller rebuilds it from its spec.
  void save_state(core::Json& out) const;

  /// Replaces the members with a save_state() document, then re-derives the
  /// fingerprint and cross-checks it against the saved one — a corrupted or
  /// hand-edited checkpoint fails loudly (moo::StateError) instead of
  /// resuming a silently different run.
  void load_state(const core::Json& doc);

 private:
  /// Front-filters the candidates, then staircase-merges (2-obj) or
  /// cross-scans (general) against the sorted archive.  No pruning.
  void merge_batch(std::span<const Individual> candidates);
  /// Single-pass capacity prune (semantics in the header comment).
  void prune();

  std::size_t capacity_;
  std::vector<Individual> members_;  ///< canonical order, unique objectives
};

}  // namespace rmp::moo
