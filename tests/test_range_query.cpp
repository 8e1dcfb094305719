// Range-query edge cases and race coverage:
//  * typed edge-case suite over the five validated (PathCAS) ordered
//    structures: empty structures, reversed bounds, lo==hi point windows,
//    boundary inclusivity, full-table scans against a std::map oracle, and
//    append (no-clear) output semantics;
//  * quiescent exactness of the best-effort scans on the two hand-crafted
//    external BST baselines;
//  * seeded concurrent races with deterministic thread counts: scans racing
//    AVL rotations and abtree leaf splits must always return sorted,
//    duplicate-free, in-range, untorn snapshots;
//  * internal-tree scans wider than one op's visited set (kMaxVisited),
//    which run as validated chunks — quiescent and racing writers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "structs/abtree_pathcas.hpp"
#include "structs/list_pathcas.hpp"
#include "structs/skiplist_pathcas.hpp"
#include "trees/ellen_bst.hpp"
#include "trees/int_avl_pathcas.hpp"
#include "trees/int_bst_pathcas.hpp"
#include "trees/ticket_bst.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::testing {
namespace {

using K = std::int64_t;
using V = std::int64_t;
using Out = std::vector<std::pair<K, V>>;

template <typename SetT>
class RangeQueryTest : public ::testing::Test {};

using RqSets =
    ::testing::Types<ds::IntBstPathCas<>, ds::IntAvlPathCas<>,
                     ds::SkipListPathCas<>, ds::ListPathCas<>,
                     ds::AbTreePathCas<>>;

class RqSetNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    std::string n = T::name();
    for (auto& c : n) {
      if (c == '-') c = '_';
    }
    return n;
  }
};

TYPED_TEST_SUITE(RangeQueryTest, RqSets, RqSetNames);

TYPED_TEST(RangeQueryTest, EmptyStructureAndEmptyWindows) {
  TypeParam s;
  Out out;
  EXPECT_EQ(s.rangeQuery(0, 100, out), 0u);
  EXPECT_EQ(s.rangeQuery(5, 5, out), 0u);
  EXPECT_EQ(s.rangeQuery(10, 2, out), 0u);  // reversed bounds: empty range
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(s.insert(7, 70));
  EXPECT_EQ(s.rangeQuery(8, 100, out), 0u);  // non-empty set, empty window
  EXPECT_EQ(s.rangeQuery(0, 6, out), 0u);
  EXPECT_TRUE(out.empty());
}

TYPED_TEST(RangeQueryTest, PointWindowLoEqualsHi) {
  TypeParam s;
  ASSERT_TRUE(s.insert(5, 50));
  ASSERT_TRUE(s.insert(6, 60));
  Out out;
  EXPECT_EQ(s.rangeQuery(5, 5, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (std::pair<K, V>{5, 50}));
  out.clear();
  EXPECT_EQ(s.rangeQuery(4, 4, out), 0u);  // absent key
  EXPECT_TRUE(out.empty());
}

TYPED_TEST(RangeQueryTest, BoundsAreInclusive) {
  TypeParam s;
  for (K k = 10; k <= 20; ++k) ASSERT_TRUE(s.insert(k, k * 10));
  Out out;
  EXPECT_EQ(s.rangeQuery(10, 20, out), 11u);
  EXPECT_EQ(out.front(), (std::pair<K, V>{10, 100}));
  EXPECT_EQ(out.back(), (std::pair<K, V>{20, 200}));
  out.clear();
  EXPECT_EQ(s.rangeQuery(11, 19, out), 9u);
  EXPECT_EQ(out.front().first, 11);
  EXPECT_EQ(out.back().first, 19);
}

TYPED_TEST(RangeQueryTest, AppendsWithoutClearing) {
  TypeParam s;
  ASSERT_TRUE(s.insert(1, 10));
  ASSERT_TRUE(s.insert(2, 20));
  Out out;
  EXPECT_EQ(s.rangeQuery(1, 1, out), 1u);
  EXPECT_EQ(s.rangeQuery(2, 2, out), 1u);  // appends after the previous hit
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[1].first, 2);
}

TYPED_TEST(RangeQueryTest, FullTableScanMatchesOracleUnderChurn) {
  TypeParam s;
  std::map<K, V> oracle;
  Xoshiro256 rng(424242);
  constexpr K kRange = 200;  // well inside the kMaxVisited scan contract
  for (int i = 0; i < 4000; ++i) {
    const K k = static_cast<K>(rng.nextBounded(kRange));
    if (rng.nextBounded(2)) {
      EXPECT_EQ(s.insert(k, k * 3), oracle.emplace(k, k * 3).second);
    } else {
      EXPECT_EQ(s.erase(k), oracle.erase(k) > 0);
    }
    if (i % 500 == 0) {
      Out out;
      ASSERT_EQ(s.rangeQuery(0, kRange - 1, out), oracle.size());
      auto it = oracle.begin();
      for (const auto& kv : out) {
        ASSERT_EQ(kv.first, it->first);
        ASSERT_EQ(kv.second, it->second);
        ++it;
      }
    }
  }
  // Final full-table scan, plus sub-range spot checks against the oracle.
  Out out;
  ASSERT_EQ(s.rangeQuery(0, kRange - 1, out), oracle.size());
  for (const auto& [lo, hi] :
       std::vector<std::pair<K, K>>{{0, 50}, {73, 91}, {150, kRange - 1}}) {
    Out sub;
    std::size_t expected = 0;
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && it->first <= hi; ++it)
      ++expected;
    EXPECT_EQ(s.rangeQuery(lo, hi, sub), expected);
  }
}

// ---------------------------------------------------------------------------
// Internal trees: scans wider than one op's visited set (kMaxVisited) run in
// validated chunks instead of overflowing it.
// ---------------------------------------------------------------------------

/// The keys first, first + step, ... below `end`, in a seeded random order:
/// random insertion keeps the unbalanced BST's search paths short (a sorted
/// fill would make one path as long as the key count, out of contract).
std::vector<K> shuffledKeys(K first, K end, K step, std::uint64_t seed) {
  std::vector<K> keys;
  for (K k = first; k < end; k += step) keys.push_back(k);
  Xoshiro256 rng(seed);
  for (std::size_t i = keys.size() - 1; i > 0; --i)
    std::swap(keys[i], keys[rng.nextBounded(i + 1)]);
  return keys;
}

template <typename TreeT>
class WideScanTest : public ::testing::Test {};

using WideScanTrees = ::testing::Types<ds::IntBstPathCas<>, ds::IntAvlPathCas<>>;
TYPED_TEST_SUITE(WideScanTest, WideScanTrees, RqSetNames);

TYPED_TEST(WideScanTest, FullRangeScanPastVisitedSetCapacity) {
  constexpr K kKeys = 2000;  // a full scan examines ~4x kMaxVisited nodes
  TypeParam s;
  for (const K k : shuffledKeys(1, kKeys + 1, 1, 2000))
    ASSERT_TRUE(s.insert(k, k * 3));
  Out out;
  ASSERT_EQ(s.rangeQuery(1, kKeys, out), static_cast<std::size_t>(kKeys));
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kKeys));
  for (K k = 1; k <= kKeys; ++k)
    ASSERT_EQ(out[static_cast<std::size_t>(k - 1)], (std::pair<K, V>{k, k * 3}));
}

// ---------------------------------------------------------------------------
// Best-effort baselines: quiescent scans are exact.
// ---------------------------------------------------------------------------

template <typename BaselineT>
void quiescentBaselineScan() {
  BaselineT s;
  std::map<K, V> oracle;
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const K k = static_cast<K>(rng.nextBounded(300));
    if (rng.nextBounded(3) != 0) {
      EXPECT_EQ(s.insert(k, k + 1), oracle.emplace(k, k + 1).second);
    } else {
      EXPECT_EQ(s.erase(k), oracle.erase(k) > 0);
    }
  }
  Out out;
  EXPECT_EQ(s.rangeQuery(0, 299, out), oracle.size());
  auto it = oracle.begin();
  for (const auto& kv : out) {
    ASSERT_EQ(kv.first, it->first);
    ASSERT_EQ(kv.second, it->second);
    ++it;
  }
  Out sub;
  EXPECT_EQ(s.rangeQuery(100, 99, sub), 0u);  // reversed bounds
  EXPECT_EQ(s.rangeQuery(1000, 2000, sub), 0u);
}

TEST(RangeQueryBaselines, EllenBstQuiescentScanIsExact) {
  quiescentBaselineScan<ds::EllenBst<>>();
}

TEST(RangeQueryBaselines, TicketBstQuiescentScanIsExact) {
  quiescentBaselineScan<ds::TicketBst<>>();
}

// ---------------------------------------------------------------------------
// Scans racing structural maintenance (seeded, deterministic thread counts).
// Every validated scan — even mid-rotation / mid-split — must be sorted,
// duplicate-free, within bounds, and untorn (val == 3 * key invariant).
// ---------------------------------------------------------------------------

/// Two writers churn 40,000 random inserts/erases each over [0, keyRange)
/// while two scanners run random windows until the writers stop; more than
/// `minScans` scans must finish. The default
/// 256-key range is filled in sorted order (the BST then races on a
/// 128-deep right spine); wider ranges are filled in seeded random order,
/// since a sorted fill would give the unbalanced BST a search path longer
/// than one op's visited set.
template <typename SetT>
void scanRacesWriters(std::uint64_t seed, K keyRange = 256,
                      std::uint64_t minScans = 100) {
  SetT s;
  constexpr int kWriters = 2, kScanners = 2, kWriterOps = 40000;
  if (keyRange <= 256) {
    for (K k = 0; k < keyRange; k += 2) ASSERT_TRUE(s.insert(k, k * 3));
  } else {
    for (const K k : shuffledKeys(0, keyRange, 2, seed))
      ASSERT_TRUE(s.insert(k, k * 3));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};
  // A scanner whose ASSERT fails returns early; the writers then stop too,
  // so the failure is reported at once.
  std::atomic<int> scannersRunning{kScanners};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ThreadGuard tg;
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kWriterOps &&
                      scannersRunning.load(std::memory_order_relaxed) ==
                          kScanners;
           ++i) {
        const K k = static_cast<K>(rng.nextBounded(keyRange));
        if (rng.nextBounded(2)) {
          s.insert(k, k * 3);
        } else {
          s.erase(k);
        }
      }
      stop.store(true, std::memory_order_release);
    });
  }
  std::vector<std::thread> scanners;
  for (int r = 0; r < kScanners; ++r) {
    scanners.emplace_back([&, r] {
      ThreadGuard tg;
      struct Exit {
        std::atomic<int>& running;
        ~Exit() { running.fetch_sub(1, std::memory_order_relaxed); }
      } onExit{scannersRunning};
      Xoshiro256 rng(seed * 31 + static_cast<std::uint64_t>(r));
      Out out;
      while (!stop.load(std::memory_order_acquire)) {
        const K lo = static_cast<K>(rng.nextBounded(keyRange));
        const K hi =
            lo + static_cast<K>(rng.nextBounded(
                     static_cast<std::uint64_t>(keyRange - lo)));
        out.clear();
        const std::size_t n = s.rangeQuery(lo, hi, out);
        ASSERT_EQ(n, out.size());
        K prev = lo - 1;
        for (const auto& [k, v] : out) {
          ASSERT_GT(k, prev) << "unsorted or duplicate key in scan";
          ASSERT_LE(k, hi);
          ASSERT_GE(k, lo);
          ASSERT_EQ(v, k * 3) << "torn (key, value) pair in scan";
          prev = k;
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : scanners) t.join();
  EXPECT_GT(scans.load(), minScans);  // the scanners ran against churn
}

TEST(RangeQueryRaces, AvlScanRacesRebalance) {
  // AVL rotations retarget pointers mid-scan; validation must catch them.
  scanRacesWriters<ds::IntAvlPathCas<>>(0xA71);
}

TEST(RangeQueryRaces, AbtreeScanRacesLeafSplits) {
  // Copy-on-write leaf replacement + blind splits race the scan's descent.
  scanRacesWriters<ds::AbTreePathCas<>>(0xAB7);
}

TEST(RangeQueryRaces, BstScanRacesTwoChildDeletes) {
  // Internal-BST two-child deletion rewrites keys/values in place (succ
  // relocation) — the torn-pair assertion is the sharp edge here.
  scanRacesWriters<ds::IntBstPathCas<>>(0xB57);
}

// A 2,000-key range: scan windows cross kMaxVisited, so scans run in
// validated chunks while rotations and deletes churn underneath. These cases
// check what the chunks return, not how many scans finish: a ~500-node chunk
// fails validation whenever a writer touches any node it visited, so wide
// scans finish far fewer scans than the narrow cases under the same churn
// (as few as 9 per run in a TSan build). Each scanner can finish at most one
// scan after the writers stop, so more than 2 scans means at least one wide
// scan completed against churn.
TEST(RangeQueryRaces, AvlWideScanChunksRaceRebalance) {
  scanRacesWriters<ds::IntAvlPathCas<>>(0xA72, 2000, 2);
}

TEST(RangeQueryRaces, BstWideScanChunksRaceTwoChildDeletes) {
  scanRacesWriters<ds::IntBstPathCas<>>(0xB58, 2000, 2);
}

TEST(RangeQueryRaces, SkiplistScanRacesTowerUnlinks) {
  scanRacesWriters<ds::SkipListPathCas<>>(0x5C1);
}

}  // namespace
}  // namespace pathcas::testing
