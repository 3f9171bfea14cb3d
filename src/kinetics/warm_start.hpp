// Epoch-committed warm-start pool for kinetic steady-state solves.
//
// The problem it solves: inside core parallel regions the item-to-thread
// assignment is nondeterministic, so any *history-based* accelerator (the
// old thread-local "previous solution on this thread" cache) would make a
// candidate's Newton start — and hence the root's low-order bits — depend on
// scheduling, breaking the bit-identical-results-for-any-thread-count
// contract.  PR 1 therefore bypassed warm starts in parallel regions
// entirely, and the dominant batch-evaluation path always cold-started
// through the whole anchor ladder.
//
// The pool restores warm starts without touching the contract by splitting
// time into epochs, mirroring the archive's commit discipline:
//   * between commits, readers see one immutable SNAPSHOT of
//     (candidate, steady state) pairs; nearest() is a pure function of
//     (query, snapshot) — argmin squared distance, lowest index on ties —
//     so every evaluation in a batch picks its start independently of
//     scheduling;
//   * record() only STAGES a pair in a mutex-guarded pending buffer;
//   * commit(), called at the same serial barriers where the archive merges
//     (engine generation ends, PMO2 epoch barriers), folds the pending
//     pairs into a new snapshot in a canonical order (lexicographic by
//     candidate), so the next epoch's snapshot is a function of the pending
//     SET — which is itself deterministic, each entry being a pure function
//     of (candidate, previous snapshot) — never of arrival order.
// Induction over epochs gives the contract: snapshot_0 = {} and
// snapshot_{k+1} = commit(snapshot_k, batch_k) are thread-count invariant,
// so every solve in every epoch is too.
//
// The pool is also safe (mutex + copy-out) for plain concurrent callers
// outside core parallel regions, where no determinism is promised — there
// the owner may commit after every record, recovering the old sequential
// warm-start behaviour (C3Model does exactly that).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/json.hpp"
#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::kinetics {

class WarmStartPool {
 public:
  /// Lazily-built per-entry acceleration data: the LU factorization of the
  /// system Jacobian AT THE RECORDED ROOT.  A lookup can then take one
  /// implicit-function (chord) step from the neighbour's root toward the
  /// queried candidate — an O(|dkey|^2)-residual start where the raw state
  /// is only O(|dkey|) — for one RHS evaluation and one triangular solve.
  /// Built on first use under call_once (the value is a pure function of
  /// the entry, so WHICH thread builds it cannot influence results) and
  /// shared by all snapshot copies of the entry across epochs.
  struct RootCache {
    std::once_flag once;
    bool valid = false;  ///< written before call_once returns; synchronized by it
    std::optional<num::LuFactorization> lu;
  };

  /// One committed (candidate, solution) pair.  Immutable once committed
  /// (the root cache fills in lazily but is value-stable), so snapshots
  /// share entries by pointer and a commit costs pointer copies, not deep
  /// Vec copies — serial callers commit after EVERY solve.
  ///
  /// Every entry is a genuine steady state: a limit-cycle AVERAGE is never
  /// recorded, because handing one to Newton as a start just burns the
  /// quick attempt.
  struct Entry {
    num::Vec key;    ///< the candidate (enzyme multipliers)
    num::Vec state;  ///< steady state
    /// Shared, lazily-filled root cache (never null for committed entries).
    std::shared_ptr<RootCache> root_cache;
  };

  /// A nearest() hit that keeps its entry alive even if a commit swaps the
  /// snapshot underneath.
  struct Hit {
    const Entry* entry = nullptr;
    std::shared_ptr<const Entry> pin;
  };

  /// `capacity` bounds the snapshot; 0 disables the pool entirely
  /// (record/commit become no-ops, nearest always misses).
  explicit WarmStartPool(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Nearest committed entry to `key` by squared Euclidean distance, ties
  /// broken toward the lowest snapshot index; false when the snapshot is
  /// empty (or the pool disabled).  `start` receives a copy of the
  /// state.  Pure function of (key, snapshot) — safe and deterministic from
  /// any number of threads between commits.
  bool nearest(std::span<const double> key, num::Vec& start) const;

  /// Like nearest(), but hands back the entry itself (state + tangent cell)
  /// with its snapshot pinned, so the caller can extrapolate.
  [[nodiscard]] Hit nearest_entry(std::span<const double> key) const;

  /// Stages (key, state) for the next commit.  Thread-safe; the snapshot is
  /// untouched, so concurrent nearest() calls stay deterministic.
  void record(std::span<const double> key, std::span<const double> state);

  /// Serial barrier: folds the staged pairs into a new snapshot.  Pending
  /// entries are sorted lexicographically by key and deduplicated (same-key
  /// pairs carry the same state by the purity argument above, so the first
  /// survives), then replace same-key snapshot entries and append after the
  /// survivors; when the result exceeds capacity the OLDEST entries fall
  /// off the front.  Must not run concurrently with nearest()/record() of
  /// the same epoch — callers invoke it only from serial sections.
  void commit();

  /// Drops the snapshot and any staged entries.
  void clear();

  /// Serializes the committed snapshot in snapshot order — the order is
  /// semantic (nearest() breaks distance ties toward the lowest index and
  /// capacity eviction is FIFO off the front), so it must survive the
  /// round-trip.  Each entry saves (key, state).  The per-entry RootCache LU
  /// factorizations are deliberately NOT serialized: each is a lazily-built
  /// pure function of its own entry (call_once at first use), i.e. derived
  /// state — a resumed run rebuilds them on demand and every solve still
  /// reproduces the uninterrupted run bitwise.  Checkpoint precondition:
  /// staging must be empty (it always is at an epoch barrier); throws
  /// moo::StateError otherwise.
  void save_state(core::Json& out) const;

  /// Restores a save_state() document; every entry gets a fresh, unbuilt
  /// RootCache.  Rejects documents larger than the configured capacity.
  void load_state(const core::Json& doc);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t snapshot_size() const;
  [[nodiscard]] std::size_t pending_size() const;

 private:
  using Snapshot = std::vector<std::shared_ptr<const Entry>>;

  std::size_t capacity_;
  mutable std::mutex mu_;  ///< guards snapshot_ (pointer swap) and pending_
  std::shared_ptr<const Snapshot> snapshot_;
  std::vector<std::shared_ptr<const Entry>> pending_;
};

}  // namespace rmp::kinetics
