// Tests for the RW-LE lock: path selection (HTM -> ROT -> NS), quiescence,
// reader-writer consistency under concurrency, and the three variants.
#include "src/rwle/rwle_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/thread_registry.h"
#include "src/memory/tx_var.h"
#include "tests/rwle_basic_lock.h"

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

class RwLeLockTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_config_ = Rt().config(); }
  void TearDown() override {
    Rt().set_config(saved_config_);
    Rt().set_interrupt_source(nullptr);
  }
  HtmConfig saved_config_;
};

TEST_F(RwLeLockTest, SingleThreadReadAndWrite) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  TxVar<std::uint64_t> cell(0);

  lock.Write([&] { cell.Store(5); });
  std::uint64_t seen = 0;
  lock.Read([&] { seen = cell.Load(); });
  EXPECT_EQ(seen, 5u);

  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kHtm)], 1u);
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kUninstrumentedRead)], 1u);
}

TEST_F(RwLeLockTest, WriteFallsBackToRotOnReadCapacity) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 4;
  Rt().set_config(config);

  RwLeLock lock;
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(16);

  // The write section reads 16 lines: HTM path capacity-aborts (persistent,
  // so only one HTM attempt), ROT path commits because its loads are
  // untracked.
  lock.Write([&] {
    std::uint64_t sum = 0;
    for (auto& cell : cells) {
      sum += cell.v.Load();
    }
    cells[0].v.Store(sum + 1);
  });

  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kRot)], 1u);
  EXPECT_EQ(stats.aborts[static_cast<int>(AbortCategory::kHtmCapacity)], 1u);
  EXPECT_EQ(cells[0].v.LoadDirect(), 1u);
}

TEST_F(RwLeLockTest, WriteFallsBackToNsOnWriteCapacity) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_write_lines = 4;
  Rt().set_config(config);

  RwLeLock lock;
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(16);

  // 16 written lines exceed both HTM and ROT write capacity: must land on
  // the non-speculative path.
  lock.Write([&] {
    for (auto& cell : cells) {
      cell.v.Store(7);
    }
  });

  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kSerial)], 1u);
  EXPECT_EQ(stats.aborts[static_cast<int>(AbortCategory::kHtmCapacity)], 1u);
  EXPECT_EQ(stats.aborts[static_cast<int>(AbortCategory::kRotCapacity)], 1u);
  for (auto& cell : cells) {
    EXPECT_EQ(cell.v.LoadDirect(), 7u);
  }
}

TEST_F(RwLeLockTest, PesVariantSkipsHtmPath) {
  ScopedThreadSlot slot;
  RwLePolicy policy;
  policy.variant = RwLeVariant::kPes;
  RwLeLock lock(policy);
  TxVar<std::uint64_t> cell(0);

  lock.Write([&] { cell.Store(3); });

  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kRot)], 1u);
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kHtm)], 0u);
}

TEST_F(RwLeLockTest, NoRotPolicyFallsFromHtmToNs) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 2;
  Rt().set_config(config);

  RwLePolicy policy;
  policy.use_rot = false;
  RwLeLock lock(policy);
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(8);

  lock.Write([&] {
    std::uint64_t sum = 0;
    for (auto& cell : cells) {
      sum += cell.v.Load();
    }
    cells[0].v.Store(sum + 1);
  });

  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kSerial)], 1u);
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kRot)], 0u);
}

TEST_F(RwLeLockTest, WriterWaitsForInFlightReaderBeforeCommitting) {
  RwLeLock lock;
  TxVar<std::uint64_t> x(0);
  TxVar<std::uint64_t> y(0);
  std::atomic<int> phase{0};
  std::atomic<bool> write_returned{false};

  // Reader enters and parks inside its critical section reading only `y`
  // (so it does not conflict with the writer's update of `x` -- no doom,
  // the writer must *wait* via quiescence).
  std::thread reader([&] {
    ScopedThreadSlot slot;
    lock.Read([&] {
      (void)y.Load();
      phase.store(1);
      while (phase.load() != 2) {
        std::this_thread::yield();
      }
    });
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }

  std::thread writer([&] {
    ScopedThreadSlot slot;
    lock.Write([&] { x.Store(1); });
    write_returned.store(true);
  });

  // Give the writer ample chance to (incorrectly) finish.
  for (int i = 0; i < 100; ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(write_returned.load());  // still draining the reader

  phase.store(2);  // release the reader
  writer.join();
  reader.join();
  EXPECT_TRUE(write_returned.load());
  EXPECT_EQ(x.LoadDirect(), 1u);
}

TEST_F(RwLeLockTest, NewReaderDoomsSuspendedWriterOnConflict) {
  // Covered at the fabric level in htm_runtime_test; here we check the
  // end-to-end effect: concurrent readers always see x == y even though
  // the writer updates both, across thousands of operations.
  RwLeLock lock;
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  Cell x, y;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    for (std::uint64_t i = 1; i <= 500; ++i) {
      lock.Write([&] {
        x.v.Store(i);
        y.v.Store(i);
      });
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      ScopedThreadSlot slot;
      while (!stop.load()) {
        lock.Read([&] {
          const std::uint64_t a = x.v.Load();
          const std::uint64_t b = y.v.Load();
          if (a != b) {
            violations.fetch_add(1);
          }
        });
      }
    });
  }

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(x.v.LoadDirect(), 500u);
}

// The snapshot-consistency invariant must hold for every variant and even
// when capacity forces the ROT/NS paths. Parameterized sweep.
struct VariantCase {
  RwLeVariant variant;
  std::uint32_t max_read_lines;
  const char* name;
  bool split_locks = false;
  // Zero retry budgets and the unoptimized two-scan NS quiescence: every
  // write takes the NS path and waits out readers with Synchronize().
  bool two_scan_ns_only = false;
};

class RwLeVariantConsistencyTest : public ::testing::TestWithParam<VariantCase> {
 protected:
  void SetUp() override { saved_config_ = HtmRuntime::Global().config(); }
  void TearDown() override { HtmRuntime::Global().set_config(saved_config_); }
  HtmConfig saved_config_;
};

TEST_P(RwLeVariantConsistencyTest, ReadersSeeConsistentSnapshots) {
  const VariantCase param = GetParam();
  HtmConfig config = Rt().config();
  config.max_read_lines = param.max_read_lines;
  Rt().set_config(config);

  RwLePolicy policy;
  policy.variant = param.variant;
  policy.split_rot_ns_locks = param.split_locks;
  if (param.two_scan_ns_only) {
    policy.single_scan_ns_sync = false;
    policy.max_htm_retries = 0;
    policy.max_rot_retries = 0;
  }
  RwLeLock lock(policy);

  constexpr int kCells = 8;
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(kCells);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  // Writers rotate: they keep the invariant sum(cells) % kCells == 0 by
  // always adding 1 to every cell.
  std::thread writer([&] {
    ScopedThreadSlot slot;
    for (int i = 0; i < 300; ++i) {
      lock.Write([&] {
        for (auto& cell : cells) {
          cell.v.Store(cell.v.Load() + 1);
        }
      });
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      ScopedThreadSlot slot;
      while (!stop.load()) {
        lock.Read([&] {
          // Last cell first, then a yield: a writer that skips quiescence
          // overwrites cells in order while this reader is mid-section.
          const std::uint64_t first = cells[kCells - 1].v.Load();
          std::this_thread::yield();
          for (auto& cell : cells) {
            if (cell.v.Load() != first) {
              violations.fetch_add(1);
              break;
            }
          }
        });
      }
    });
  }

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0u) << param.name;
  for (auto& cell : cells) {
    EXPECT_EQ(cell.v.LoadDirect(), 300u);
  }
  if (param.two_scan_ns_only) {
    EXPECT_EQ(lock.stats().Aggregate().commits[static_cast<int>(CommitPath::kSerial)],
              300u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, RwLeVariantConsistencyTest,
    ::testing::Values(
        VariantCase{RwLeVariant::kOpt, 64, "opt"},
        VariantCase{RwLeVariant::kPes, 64, "pes"},
        VariantCase{RwLeVariant::kFair, 64, "fair"},
        VariantCase{RwLeVariant::kOpt, 2, "opt-tiny-capacity"},   // forces ROT
        VariantCase{RwLeVariant::kPes, 2, "pes-tiny-capacity"},
        VariantCase{RwLeVariant::kFair, 2, "fair-tiny-capacity"},
        VariantCase{RwLeVariant::kOpt, 64, "opt-split", true},
        VariantCase{RwLeVariant::kOpt, 2, "opt-split-tiny-capacity", true},
        VariantCase{RwLeVariant::kPes, 2, "pes-split-tiny-capacity", true},
        VariantCase{RwLeVariant::kOpt, 64, "opt-two-scan-ns", false, true}),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      std::string name = info.param.name;
      for (auto& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST_F(RwLeLockTest, ConcurrentWritersAllCommit) {
  RwLeLock lock;
  TxVar<std::uint64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      ScopedThreadSlot slot;
      for (int i = 0; i < kIncrements; ++i) {
        lock.Write([&] { counter.Store(counter.Load() + 1); });
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(counter.LoadDirect(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(RwLeLockTest, BasicAlgorithmMaintainsAtomicity) {
  RwLeBasicLock lock;
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  Cell x, y;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    for (std::uint64_t i = 1; i <= 300; ++i) {
      lock.Write([&] {
        x.v.Store(i);
        y.v.Store(i);
      });
    }
    stop.store(true);
  });

  std::thread reader([&] {
    ScopedThreadSlot slot;
    while (!stop.load()) {
      lock.Read([&] {
        const std::uint64_t a = x.v.Load();
        const std::uint64_t b = y.v.Load();
        if (a != b) {
          violations.fetch_add(1);
        }
      });
    }
  });

  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST_F(RwLeLockTest, UserExceptionPropagatesAndReleasesEverything) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  TxVar<std::uint64_t> cell(0);

  struct Boom {};
  EXPECT_THROW(lock.Write([&] {
    cell.Store(1);
    throw Boom{};
  }),
               Boom);
  EXPECT_FALSE(Rt().InTx());
  EXPECT_EQ(cell.LoadDirect(), 0u);  // speculative store discarded

  EXPECT_THROW(lock.Read([&] { throw Boom{}; }), Boom);
  // Lock fully usable afterwards.
  lock.Write([&] { cell.Store(2); });
  EXPECT_EQ(cell.LoadDirect(), 2u);
}

TEST_F(RwLeLockTest, SynchronizeWaitsForOddClocks) {
  RwLeLock lock;
  std::atomic<int> phase{0};
  std::atomic<bool> sync_done{false};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    lock.Read([&] {
      phase.store(1);
      while (phase.load() != 2) {
        std::this_thread::yield();
      }
    });
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  std::thread syncer([&] {
    ScopedThreadSlot slot;
    lock.Synchronize();
    sync_done.store(true);
  });

  for (int i = 0; i < 100; ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(sync_done.load());
  phase.store(2);
  syncer.join();
  reader.join();
  EXPECT_TRUE(sync_done.load());
}


TEST_F(RwLeLockTest, NestedReadSectionsAreFlattened) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  TxVar<std::uint64_t> cell(9);

  std::uint64_t outer = 0, inner = 0;
  lock.Read([&] {
    outer = cell.Load();
    lock.Read([&] { inner = cell.Load(); });  // footnote 3: nesting
    // Still inside the outer section after the inner one exits.
    EXPECT_TRUE(EpochClocks::IsInCriticalSection(
        lock.clocks().Value(CurrentThreadSlot())));
  });
  EXPECT_EQ(outer, 9u);
  EXPECT_EQ(inner, 9u);
  EXPECT_FALSE(
      EpochClocks::IsInCriticalSection(lock.clocks().Value(CurrentThreadSlot())));
}

TEST_F(RwLeLockTest, NestedWriteSectionsAreFlattened) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  TxVar<std::uint64_t> cell(0);

  lock.Write([&] {
    cell.Store(1);
    lock.Write([&] { cell.Store(cell.Load() + 1); });
    cell.Store(cell.Load() + 1);
  });
  EXPECT_EQ(cell.LoadDirect(), 3u);
  // Exactly one commit for the whole flattened section.
  EXPECT_EQ(lock.stats().Aggregate().TotalCommits(), 1u);
}

TEST_F(RwLeLockTest, ReadInsideWriteIsSubsumed) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  TxVar<std::uint64_t> cell(5);

  lock.Write([&] {
    cell.Store(6);
    std::uint64_t seen = 0;
    lock.Read([&] { seen = cell.Load(); });  // sees the writer's own store
    EXPECT_EQ(seen, 6u);
  });
  EXPECT_EQ(cell.LoadDirect(), 6u);
}

TEST_F(RwLeLockTest, NestedReadSurvivesWriteRetries) {
  // The nested-read bookkeeping must stay balanced across speculative
  // retries: force the HTM path to capacity-abort into ROT with a nested
  // Read inside the write body.
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 2;
  Rt().set_config(config);

  RwLeLock lock;
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(8);

  lock.Write([&] {
    std::uint64_t sum = 0;
    lock.Read([&] {
      for (auto& cell : cells) {
        sum += cell.v.Load();
      }
    });
    cells[0].v.Store(sum + 1);
  });
  EXPECT_EQ(cells[0].v.LoadDirect(), 1u);
  // After everything, a plain read still works (depths balanced).
  std::uint64_t seen = 0;
  lock.Read([&] { seen = cells[0].v.Load(); });
  EXPECT_EQ(seen, 1u);
}

TEST_F(RwLeLockTest, SplitLockModeUsesRotAndNsPaths) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 2;
  Rt().set_config(config);

  RwLePolicy policy;
  policy.split_rot_ns_locks = true;
  RwLeLock lock(policy);
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(8);

  // Read-heavy write section: HTM capacity-aborts, ROT commits via the
  // dedicated ROT lock.
  lock.Write([&] {
    std::uint64_t sum = 0;
    for (auto& cell : cells) {
      sum += cell.v.Load();
    }
    cells[0].v.Store(sum + 1);
  });
  EXPECT_EQ(lock.stats().Aggregate().commits[static_cast<int>(CommitPath::kRot)], 1u);

  // Write-heavy section (exceeds write capacity): must reach NS even in
  // split mode.
  HtmConfig config2 = Rt().config();
  config2.max_write_lines = 4;
  Rt().set_config(config2);
  lock.Write([&] {
    for (auto& cell : cells) {
      cell.v.Store(2);
    }
  });
  EXPECT_EQ(lock.stats().Aggregate().commits[static_cast<int>(CommitPath::kSerial)], 1u);
}

}  // namespace
}  // namespace rwle
