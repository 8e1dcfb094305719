// Tests for the PathCAS internal BST: sequential semantics against a
// std::set oracle, structural invariants, and concurrent stress with the
// setbench-style keysum validation (sum of keys successfully inserted minus
// keys successfully deleted must equal the final tree keysum).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "trees/int_bst_pathcas.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::ds {
namespace {

using Bst = IntBstPathCas<std::int64_t, std::int64_t>;

// Node layout pin: the benchmark gates bytes per key on this size, so a
// node that grows must fail to compile.
static_assert(sizeof(IntBstPathCas<>::Node) == 40);

TEST(IntBst, EmptyTreeBasics) {
  Bst t;
  EXPECT_FALSE(t.contains(5));
  EXPECT_FALSE(t.erase(5));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.get(5).has_value());
}

TEST(IntBst, InsertContainsErase) {
  Bst t;
  EXPECT_TRUE(t.insert(10, 100));
  EXPECT_TRUE(t.contains(10));
  EXPECT_FALSE(t.insert(10, 200));  // insertIfAbsent
  EXPECT_EQ(t.get(10).value(), 100);
  EXPECT_TRUE(t.erase(10));
  EXPECT_FALSE(t.contains(10));
  EXPECT_FALSE(t.erase(10));
  EXPECT_EQ(t.size(), 0u);
}

TEST(IntBst, LeafOneChildTwoChildDeletions) {
  Bst t;
  /*        50
   *      /    \
   *    30      70
   *   /  \    /
   *  20  40  60      */
  for (std::int64_t k : {50, 30, 70, 20, 40, 60}) EXPECT_TRUE(t.insert(k, k));
  EXPECT_TRUE(t.erase(20));  // leaf
  t.checkInvariants();
  EXPECT_TRUE(t.erase(70));  // one child (60)
  t.checkInvariants();
  EXPECT_TRUE(t.erase(30));  // one child now (40)
  t.checkInvariants();
  EXPECT_TRUE(t.erase(50));  // two children (40, 60): successor promotion
  t.checkInvariants();
  EXPECT_FALSE(t.contains(50));
  EXPECT_TRUE(t.contains(40));
  EXPECT_TRUE(t.contains(60));
  EXPECT_EQ(t.size(), 2u);
}

TEST(IntBst, TwoChildDeleteWhereSuccessorIsRightChild) {
  Bst t;
  /*    50
   *   /  \
   *  30    70   (succ of 50 is 70, the right child: succP == curr)
   *          \
   *           80     */
  for (std::int64_t k : {50, 30, 70, 80}) EXPECT_TRUE(t.insert(k, k));
  EXPECT_TRUE(t.erase(50));
  t.checkInvariants();
  EXPECT_TRUE(t.contains(70));
  EXPECT_TRUE(t.contains(80));
  EXPECT_TRUE(t.contains(30));
  EXPECT_EQ(t.size(), 3u);
}

TEST(IntBst, TwoChildDeleteWithDeepSuccessorHavingRightChild) {
  Bst t;
  /*      50
   *    /    \
   *  30      90
   *         /
   *       60       (succ of 50; has a right child 70)
   *         \
   *          70    */
  for (std::int64_t k : {50, 30, 90, 60, 70}) EXPECT_TRUE(t.insert(k, k));
  EXPECT_TRUE(t.erase(50));
  t.checkInvariants();
  for (std::int64_t k : {30, 60, 70, 90}) EXPECT_TRUE(t.contains(k));
  EXPECT_EQ(t.size(), 4u);
}

TEST(IntBst, ValuesFollowSuccessorPromotion) {
  Bst t;
  t.insert(50, 500);
  t.insert(30, 300);
  t.insert(70, 700);
  t.erase(50);
  EXPECT_EQ(t.get(70).value(), 700);
  EXPECT_EQ(t.get(30).value(), 300);
}

TEST(IntBst, NegativeKeys) {
  Bst t;
  for (std::int64_t k : {-5, -50, 0, 17, -1}) EXPECT_TRUE(t.insert(k, k));
  for (std::int64_t k : {-5, -50, 0, 17, -1}) EXPECT_TRUE(t.contains(k));
  EXPECT_EQ(t.keySum(), -5 - 50 + 0 + 17 - 1);
  EXPECT_TRUE(t.erase(-50));
  EXPECT_FALSE(t.contains(-50));
  t.checkInvariants();
}

TEST(IntBst, RandomOpsMatchOracle) {
  Bst t;
  std::set<std::int64_t> oracle;
  Xoshiro256 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(300));
    switch (rng.nextBounded(3)) {
      case 0:
        ASSERT_EQ(t.insert(k, k * 2), oracle.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(t.erase(k), oracle.erase(k) > 0);
        break;
      default:
        ASSERT_EQ(t.contains(k), oracle.count(k) > 0);
    }
  }
  const TreeStats stats = t.checkInvariants();
  EXPECT_EQ(stats.size, oracle.size());
  std::int64_t oracleSum = 0;
  for (auto k : oracle) oracleSum += k;
  EXPECT_EQ(stats.keySum, oracleSum);
  // In-order traversal matches oracle order and values.
  std::vector<std::int64_t> keys;
  t.forEach([&](std::int64_t k, std::int64_t v) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 2);
  });
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin(),
                         oracle.end()));
}

TEST(IntBst, AscendingAndDescendingInsertions) {
  Bst t;
  for (std::int64_t k = 0; k < 300; ++k) EXPECT_TRUE(t.insert(k, k));
  for (std::int64_t k = -1; k > -300; --k) EXPECT_TRUE(t.insert(k, k));
  const TreeStats s = t.checkInvariants();
  EXPECT_EQ(s.size, 599u);
  EXPECT_EQ(s.height, 300u);  // degenerate chains, still correct
  for (std::int64_t k = -299; k < 300; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size(), 0u);
}

TEST(IntBst, ReducedValidationOffStillCorrect) {
  Bst t(IntBstOptions{.reduceValidation = false});
  std::set<std::int64_t> oracle;
  Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(100));
    if (rng.nextBounded(2)) {
      ASSERT_EQ(t.insert(k, k), oracle.insert(k).second);
    } else {
      ASSERT_EQ(t.erase(k), oracle.erase(k) > 0);
    }
  }
  EXPECT_EQ(t.size(), oracle.size());
}

// ---------------------------------------------------------------------------
// Concurrency.
// ---------------------------------------------------------------------------

struct StressParams {
  int threads;
  int opsPerThread;
  std::int64_t keyRange;
  bool useHtmFastPath;
};

class IntBstStress : public ::testing::TestWithParam<StressParams> {};

TEST_P(IntBstStress, KeysumInvariantHolds) {
  const StressParams p = GetParam();
  Bst t(IntBstOptions{.useHtmFastPath = p.useHtmFastPath});
  // Prefill half the key range so deletes hit.
  std::int64_t prefillSum = 0;
  {
    Xoshiro256 rng(1);
    for (std::int64_t i = 0; i < p.keyRange / 2; ++i) {
      const auto k = static_cast<std::int64_t>(rng.nextBounded(p.keyRange));
      if (t.insert(k, k)) prefillSum += k;
    }
  }
  std::vector<std::thread> workers;
  std::vector<std::int64_t> deltas(p.threads, 0);
  for (int w = 0; w < p.threads; ++w) {
    workers.emplace_back([&, w] {
      ThreadGuard tg;
      Xoshiro256 rng(100 + w);
      std::int64_t delta = 0;
      for (int i = 0; i < p.opsPerThread; ++i) {
        const auto k = static_cast<std::int64_t>(rng.nextBounded(p.keyRange));
        switch (rng.nextBounded(4)) {
          case 0:
            if (t.insert(k, k)) delta += k;
            break;
          case 1:
            if (t.erase(k)) delta -= k;
            break;
          default: {
            // contains result must be a plausible boolean; correctness of
            // the snapshot is enforced by the validated-search design.
            (void)t.contains(k);
          }
        }
      }
      deltas[w] = delta;
    });
  }
  for (auto& th : workers) th.join();
  std::int64_t expected = prefillSum;
  for (auto d : deltas) expected += d;
  const TreeStats stats = t.checkInvariants();  // also checks BST order
  EXPECT_EQ(stats.keySum, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntBstStress,
    ::testing::Values(StressParams{2, 8000, 64, false},
                      StressParams{4, 5000, 16, false},   // high contention
                      StressParams{4, 5000, 2048, false},
                      StressParams{8, 2000, 256, false},
                      StressParams{4, 3000, 256, true}),  // HTM fast path
    [](const auto& info) {
      const StressParams& p = info.param;
      return "t" + std::to_string(p.threads) + "_k" +
             std::to_string(p.keyRange) + (p.useHtmFastPath ? "_htm" : "");
    });

// Concurrent contains must never report a key absent while it is
// continuously present (the Fig. 2 scenario is excluded by validation).
TEST(IntBstConcurrent, StablePresentKeysAlwaysFound) {
  Bst t;
  const std::vector<std::int64_t> stable = {100, 200, 300, 400, 500};
  for (auto k : stable) ASSERT_TRUE(t.insert(k, k));
  std::atomic<bool> stop{false};
  // Churn threads insert/delete keys around (but never equal to) the stable
  // keys, forcing constant restructuring including two-child deletions.
  std::vector<std::thread> churn;
  for (int w = 0; w < 3; ++w) {
    churn.emplace_back([&, w] {
      ThreadGuard tg;
      Xoshiro256 rng(7 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(600));
        if (k % 100 == 0) ++k;  // avoid the stable keys
        if (rng.nextBounded(2)) {
          t.insert(k, k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  {
    ThreadGuard tg;
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(t.contains(stable[i % stable.size()]));
    }
  }
  stop.store(true);
  for (auto& th : churn) th.join();
  t.checkInvariants();
}

}  // namespace
}  // namespace pathcas::ds
