// TxHashMap unit tests plus cross-scheme integration/property tests: under
// every synchronization scheme, concurrent traffic must conserve the map's
// structural invariants and readers must see consistent states.
#include "src/workloads/hashmap/tx_hashmap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_registry.h"
#include "src/locks/lock_factory.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {
namespace {

TEST(TxHashMapTest, InsertLookupRemove) {
  ScopedThreadSlot slot;
  TxHashMap map(8);

  TxHashMap::Node* node = TxHashMap::PrepareNode(5, 55);
  EXPECT_TRUE(map.InsertPrepared(node));
  std::uint64_t value = 0;
  EXPECT_TRUE(map.Lookup(5, &value));
  EXPECT_EQ(value, 55u);
  EXPECT_FALSE(map.Lookup(6, &value));

  TxHashMap::Node* duplicate = TxHashMap::PrepareNode(5, 99);
  EXPECT_FALSE(map.InsertPrepared(duplicate));
  TxHashMap::DiscardNode(duplicate);

  TxHashMap::Node* unlinked = nullptr;
  EXPECT_TRUE(map.Remove(5, &unlinked));
  ASSERT_NE(unlinked, nullptr);
  TxHashMap::FreeNode(unlinked);
  EXPECT_FALSE(map.Lookup(5, &value));
  EXPECT_EQ(map.SizeDirect(), 0u);
}

TEST(TxHashMapTest, UpdateExistingKey) {
  ScopedThreadSlot slot;
  TxHashMap map(4);
  EXPECT_TRUE(map.InsertPrepared(TxHashMap::PrepareNode(1, 10)));
  EXPECT_TRUE(map.Update(1, 20));
  std::uint64_t value = 0;
  EXPECT_TRUE(map.Lookup(1, &value));
  EXPECT_EQ(value, 20u);
  EXPECT_FALSE(map.Update(2, 5));
}

TEST(TxHashMapTest, PopulateLaysOutDenseKeys) {
  TxHashMap map(4);
  map.Populate(10);
  EXPECT_EQ(map.SizeDirect(), 40u);
  // Keys 0..39 present exactly once: sum = 39*40/2.
  EXPECT_EQ(map.KeySumDirect(), 780u);
}

TEST(TxHashMapTest, ScanBucketHonorsLimit) {
  ScopedThreadSlot slot;
  TxHashMap map(1);
  map.Populate(50);
  // Sum of first 3 values along the single bucket.
  const std::uint64_t sum3 = map.ScanBucket(0, 3);
  const std::uint64_t sum_all = map.ScanBucket(0, 1000);
  EXPECT_LT(sum3, sum_all);
}

TEST(TxHashMapTest, RemoveMiddleOfChain) {
  ScopedThreadSlot slot;
  TxHashMap map(1);  // single bucket: all keys chain together
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(map.InsertPrepared(TxHashMap::PrepareNode(k, k)));
  }
  TxHashMap::Node* unlinked = nullptr;
  EXPECT_TRUE(map.Remove(2, &unlinked));
  TxHashMap::FreeNode(unlinked);
  EXPECT_EQ(map.SizeDirect(), 4u);
  for (std::uint64_t k = 0; k < 5; ++k) {
    std::uint64_t value = 0;
    EXPECT_EQ(map.Lookup(k, &value), k != 2);
  }
}

// Write-heavy churn on a single chain: a speculative attempt that began
// before a Remove's unlink keeps loading the node until its next doom
// check, so the workload must not free removed nodes while workers run.
// Under AddressSanitizer an early free shows up as a heap-use-after-free.
TEST(HashMapWorkloadTest, WriteHeavySingleBucketChurn) {
  auto lock = MakeLock("rwle-opt");
  ASSERT_NE(lock, nullptr);
  HashMapWorkload workload(HashMapScenario{.buckets = 1, .per_bucket = 50});

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedThreadSlot slot;
      Rng rng(500 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        workload.Op(*lock, rng, rng.NextBool(0.9));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  TxHashMap& map = workload.map();
  std::uint64_t present = 0;
  std::uint64_t key_sum = 0;
  for (std::uint64_t key = 0; key < 50; ++key) {
    ScopedThreadSlot slot;
    std::uint64_t value = 0;
    if (map.Lookup(key, &value)) {
      ++present;
      key_sum += key;
      EXPECT_EQ(value, key * 3);
    }
  }
  EXPECT_EQ(map.SizeDirect(), present);
  EXPECT_EQ(map.KeySumDirect(), key_sum);
}

// Cross-scheme integration: run the sensitivity workload on a small map
// under every lock and verify structural integrity afterwards. This is the
// closest thing to a linearizability smoke test the closure API allows:
// the map must remain a valid chain set whose keys all map to their bucket.
class HashMapSchemeTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { saved_config_ = HtmRuntime::Global().config(); }
  void TearDown() override { HtmRuntime::Global().set_config(saved_config_); }
  HtmConfig saved_config_;
};

TEST_P(HashMapSchemeTest, ConcurrentChurnPreservesStructure) {
  auto lock = MakeLock(GetParam());
  ASSERT_NE(lock, nullptr);
  HashMapWorkload workload(HashMapScenario{.buckets = 4, .per_bucket = 32});

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedThreadSlot slot;
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        workload.Op(*lock, rng, rng.NextBool(0.3));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Structural audit: every key is in its bucket exactly once.
  TxHashMap& map = workload.map();
  const std::uint64_t size = map.SizeDirect();
  EXPECT_GT(size, 0u);
  std::uint64_t rescan = 0;
  for (std::uint64_t key = 0; key < 4 * 32; ++key) {
    ScopedThreadSlot slot;
    std::uint64_t value = 0;
    if (map.Lookup(key, &value)) {
      ++rescan;
      EXPECT_EQ(value, key * 3);  // all writers store key*3
    }
  }
  EXPECT_EQ(rescan, size);
}

TEST_P(HashMapSchemeTest, ReadersSeeOnlyCommittedValues) {
  auto lock = MakeLock(GetParam());
  ASSERT_NE(lock, nullptr);
  TxHashMap map(2);
  map.Populate(16);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_values{0};

  // Writers update values to key*3 (the invariant all values satisfy).
  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key = rng.NextBelow(32);
      lock->Write([&] { map.Update(key, key * 3); });
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ScopedThreadSlot slot;
      Rng rng(100 + r);
      while (!stop.load()) {
        const std::uint64_t key = rng.NextBelow(32);
        std::uint64_t value = 0;
        bool found = false;
        lock->Read([&] { found = map.Lookup(key, &value); });
        if (found && value != key * 3) {
          bad_values.fetch_add(1);
        }
      }
    });
  }

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad_values.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, HashMapSchemeTest,
                         ::testing::Values("rwle-opt", "rwle-pes", "rwle-fair",
                                           "rwle-norot", "rwle-split", "hle", "brlock",
                                           "rwl", "sgl"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace rwle
