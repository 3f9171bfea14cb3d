#include "kinetics/warm_start.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/json.hpp"
#include "moo/state.hpp"
#include "numeric/rng.hpp"

namespace rmp::kinetics {
namespace {

num::Vec key1(double a, double b) { return num::Vec{a, b}; }

TEST(WarmStartPoolTest, EmptyPoolMisses) {
  WarmStartPool pool(8);
  num::Vec start;
  EXPECT_FALSE(pool.nearest(key1(1.0, 1.0), start));
  EXPECT_EQ(pool.snapshot_size(), 0u);
}

TEST(WarmStartPoolTest, RecordIsInvisibleUntilCommit) {
  WarmStartPool pool(8);
  pool.record(key1(1.0, 1.0), num::Vec{7.0});
  num::Vec start;
  EXPECT_FALSE(pool.nearest(key1(1.0, 1.0), start));
  EXPECT_EQ(pool.pending_size(), 1u);
  pool.commit();
  EXPECT_EQ(pool.pending_size(), 0u);
  ASSERT_TRUE(pool.nearest(key1(1.0, 1.0), start));
  EXPECT_EQ(start, num::Vec{7.0});
}

TEST(WarmStartPoolTest, NearestPicksClosestCommittedEntry) {
  WarmStartPool pool(8);
  pool.record(key1(0.0, 0.0), num::Vec{1.0});
  pool.record(key1(2.0, 2.0), num::Vec{2.0});
  pool.record(key1(5.0, 5.0), num::Vec{3.0});
  pool.commit();
  num::Vec start;
  ASSERT_TRUE(pool.nearest(key1(1.8, 2.1), start));
  EXPECT_EQ(start, num::Vec{2.0});
  ASSERT_TRUE(pool.nearest(key1(-1.0, 0.0), start));
  EXPECT_EQ(start, num::Vec{1.0});
}

TEST(WarmStartPoolTest, NearestTieBreaksTowardLowestSnapshotIndex) {
  WarmStartPool pool(8);
  // Committed in one batch -> canonical (lexicographic) order: (-1,0) before
  // (1,0).  A query equidistant from both must pick the earlier entry.
  pool.record(key1(1.0, 0.0), num::Vec{2.0});
  pool.record(key1(-1.0, 0.0), num::Vec{1.0});
  pool.commit();
  num::Vec start;
  ASSERT_TRUE(pool.nearest(key1(0.0, 0.0), start));
  EXPECT_EQ(start, num::Vec{1.0});
}

TEST(WarmStartPoolTest, CommitIsIndependentOfArrivalOrder) {
  // The determinism keystone: the same SET of recorded pairs — arriving in
  // scrambled per-thread order — must commit to identical snapshots.
  num::Rng rng(42);
  std::vector<std::pair<num::Vec, num::Vec>> entries;
  for (int i = 0; i < 64; ++i) {
    entries.push_back({num::Vec{rng.uniform(), rng.uniform(), rng.uniform()},
                       num::Vec{rng.uniform(), rng.uniform()}});
  }

  WarmStartPool forward(32), scrambled(32);
  for (const auto& [k, s] : entries) forward.record(k, s);
  std::vector<std::size_t> order(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  // Concurrent recording (the PMO2-island situation), consuming the
  // scrambled order from both ends.
  std::thread other([&] {
    for (std::size_t i = 0; i < order.size() / 2; ++i) {
      scrambled.record(entries[order[i]].first, entries[order[i]].second);
    }
  });
  for (std::size_t i = order.size() / 2; i < order.size(); ++i) {
    scrambled.record(entries[order[i]].first, entries[order[i]].second);
  }
  other.join();

  forward.commit();
  scrambled.commit();
  ASSERT_EQ(forward.snapshot_size(), scrambled.snapshot_size());
  for (int probe = 0; probe < 100; ++probe) {
    const num::Vec q{rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0),
                     rng.uniform(-1.0, 2.0)};
    num::Vec a, b;
    ASSERT_TRUE(forward.nearest(q, a));
    ASSERT_TRUE(scrambled.nearest(q, b));
    EXPECT_EQ(a, b) << "probe " << probe;
  }
}

TEST(WarmStartPoolTest, RecommittedKeyReplacesStateAndMovesToBack) {
  WarmStartPool pool(2);
  pool.record(key1(0.0, 0.0), num::Vec{1.0});
  pool.record(key1(9.0, 9.0), num::Vec{2.0});
  pool.commit();
  // Refresh (0,0) in a later epoch; capacity stays 2, both keys present.
  pool.record(key1(0.0, 0.0), num::Vec{10.0});
  pool.commit();
  EXPECT_EQ(pool.snapshot_size(), 2u);
  num::Vec start;
  ASSERT_TRUE(pool.nearest(key1(0.0, 0.0), start));
  EXPECT_EQ(start, num::Vec{10.0});
  ASSERT_TRUE(pool.nearest(key1(9.0, 9.0), start));
  EXPECT_EQ(start, num::Vec{2.0});
}

TEST(WarmStartPoolTest, CapacityEvictsOldestFirst) {
  WarmStartPool pool(2);
  pool.record(key1(0.0, 0.0), num::Vec{1.0});
  pool.commit();
  pool.record(key1(5.0, 5.0), num::Vec{2.0});
  pool.commit();
  pool.record(key1(9.0, 9.0), num::Vec{3.0});
  pool.commit();
  EXPECT_EQ(pool.snapshot_size(), 2u);
  num::Vec start;
  // The oldest entry (0,0) fell off: its exact key now maps to (5,5)'s state.
  ASSERT_TRUE(pool.nearest(key1(0.0, 0.0), start));
  EXPECT_EQ(start, num::Vec{2.0});
}

TEST(WarmStartPoolTest, DuplicateKeysInOneBatchDedupe) {
  WarmStartPool pool(8);
  pool.record(key1(1.0, 1.0), num::Vec{5.0});
  pool.record(key1(1.0, 1.0), num::Vec{5.0});
  pool.record(key1(1.0, 1.0), num::Vec{5.0});
  pool.commit();
  EXPECT_EQ(pool.snapshot_size(), 1u);
}

TEST(WarmStartPoolTest, ZeroCapacityDisablesThePool) {
  WarmStartPool pool(0);
  pool.record(key1(1.0, 1.0), num::Vec{5.0});
  EXPECT_EQ(pool.pending_size(), 0u);
  pool.commit();
  num::Vec start;
  EXPECT_FALSE(pool.nearest(key1(1.0, 1.0), start));
}

TEST(WarmStartPoolTest, ClearDropsSnapshotAndPending) {
  WarmStartPool pool(8);
  pool.record(key1(1.0, 1.0), num::Vec{5.0});
  pool.commit();
  pool.record(key1(2.0, 2.0), num::Vec{6.0});
  pool.clear();
  EXPECT_EQ(pool.snapshot_size(), 0u);
  EXPECT_EQ(pool.pending_size(), 0u);
}

TEST(WarmStartPoolTest, StateRoundTripKeepsRootsAndTieOrder) {
  WarmStartPool a(8);
  // Two roots committed in one batch (canonical order: (-1,0) then (1,0)).
  a.record(key1(1.0, 0.0), num::Vec{2.0});
  a.record(key1(-1.0, 0.0), num::Vec{1.0});
  a.commit();

  core::Json doc = core::Json::object();
  a.save_state(doc);
  WarmStartPool b(8);
  b.load_state(core::Json::parse(doc.dump(2)));
  EXPECT_EQ(b.snapshot_size(), a.snapshot_size());

  // Snapshot order is semantic: the equidistant tie must still break toward
  // the entry that was earlier in the original snapshot.
  num::Vec start;
  ASSERT_TRUE(b.nearest(key1(0.0, 0.0), start));
  EXPECT_EQ(start, num::Vec{1.0});
}

TEST(WarmStartPoolTest, SaveStateRequiresAnEpochBarrier) {
  WarmStartPool pool(8);
  pool.record(key1(1.0, 1.0), num::Vec{5.0});  // staged, not committed
  core::Json doc = core::Json::object();
  EXPECT_THROW(pool.save_state(doc), moo::StateError);
}

TEST(WarmStartPoolTest, LoadRejectsMoreEntriesThanCapacity) {
  WarmStartPool a(8);
  a.record(key1(1.0, 1.0), num::Vec{5.0});
  a.record(key1(2.0, 2.0), num::Vec{6.0});
  a.commit();
  core::Json doc = core::Json::object();
  a.save_state(doc);
  WarmStartPool small(1);
  EXPECT_THROW(small.load_state(doc), moo::StateError);
}

}  // namespace
}  // namespace rmp::kinetics
