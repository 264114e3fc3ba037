// Unit tests for the simulated HTM facility: buffering, aggregate-store
// commit, conflict dooming in every direction, capacity, ROT semantics,
// suspend/resume, and interrupt injection.
#include "src/htm/htm_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/thread_registry.h"
#include "src/memory/paging_model.h"
#include "src/memory/tx_var.h"

#ifdef RWLE_ANALYSIS
#include "src/analysis/txsan.h"
#endif

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

class HtmRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = Rt().config();
    Rt().set_interrupt_source(nullptr);
  }
  void TearDown() override {
    Rt().set_config(saved_config_);
    Rt().set_interrupt_source(nullptr);
  }
  HtmConfig saved_config_;
};

TEST_F(HtmRuntimeTest, NonTxAccessesWorkWithoutRegistration) {
  TxVar<std::uint64_t> cell(7);
  EXPECT_EQ(cell.Load(), 7u);
  cell.Store(9);
  EXPECT_EQ(cell.Load(), 9u);
}

TEST_F(HtmRuntimeTest, TransactionBuffersStoresUntilCommit) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  // Speculative: backing memory unchanged.
  EXPECT_EQ(cell.LoadDirect(), 1u);
  // Read-own-write.
  EXPECT_EQ(cell.Load(), 2u);
  Rt().TxCommit();
  EXPECT_EQ(cell.LoadDirect(), 2u);
}

TEST_F(HtmRuntimeTest, ExplicitAbortDiscardsStores) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  EXPECT_THROW(Rt().TxAbort(AbortCause::kExplicit), TxAbortException);
  EXPECT_EQ(cell.LoadDirect(), 1u);
  EXPECT_EQ(cell.Load(), 1u);  // non-tx load after abort
}

TEST_F(HtmRuntimeTest, TxCancelIsSilentAndDiscards) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(5);
  Rt().TxCancel();
  EXPECT_EQ(cell.LoadDirect(), 1u);
  EXPECT_FALSE(Rt().InTx());
}

TEST_F(HtmRuntimeTest, CommitAfterCancelledEpochStartsFreshTransaction) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(0);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(1);
  Rt().TxCancel();
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  Rt().TxCommit();
  EXPECT_EQ(cell.LoadDirect(), 2u);
}

TEST_F(HtmRuntimeTest, ReadCapacityAbortIsPersistent) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 4;
  Rt().set_config(config);

  // Each TxVar is alone on its line via alignment of the array elements.
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(10);

  Rt().TxBegin(TxKind::kHtm);
  bool aborted = false;
  try {
    for (auto& cell : cells) {
      (void)cell.v.Load();
    }
  } catch (const TxAbortException& abort) {
    aborted = true;
    EXPECT_EQ(abort.cause(), AbortCause::kCapacityRead);
    EXPECT_TRUE(abort.persistent());
  }
  EXPECT_TRUE(aborted);
  EXPECT_FALSE(Rt().InTx());
}

TEST_F(HtmRuntimeTest, WriteCapacityAbortIsPersistent) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_write_lines = 4;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(10);

  Rt().TxBegin(TxKind::kHtm);
  bool aborted = false;
  try {
    for (auto& cell : cells) {
      cell.v.Store(1);
    }
  } catch (const TxAbortException& abort) {
    aborted = true;
    EXPECT_EQ(abort.cause(), AbortCause::kCapacityWrite);
  }
  EXPECT_TRUE(aborted);
  // All buffered stores discarded.
  for (auto& cell : cells) {
    EXPECT_EQ(cell.v.LoadDirect(), 0u);
  }
}

TEST_F(HtmRuntimeTest, RotLoadsAreUntrackedByCapacity) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 2;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(50);

  Rt().TxBegin(TxKind::kRot);
  std::uint64_t sum = 0;
  for (auto& cell : cells) {
    sum += cell.v.Load();  // would capacity-abort an HTM transaction
  }
  Rt().TxCommit();
  EXPECT_EQ(sum, 0u);
}

TEST_F(HtmRuntimeTest, NonTxReadDoomsConflictingWriterEvenWhenSuspended) {
  TxVar<std::uint64_t> cell(10);
  std::atomic<int> phase{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(20);
    Rt().TxSuspend();
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    Rt().TxResume();
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);  // doomed by the reader
    EXPECT_EQ(cell.LoadDirect(), 10u);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  // Uninstrumented reader: sees the pre-transaction value and kills the
  // suspended speculation (paper, Figure 2).
  EXPECT_EQ(cell.Load(), 10u);
  phase.store(2);
  writer.join();
}

TEST_F(HtmRuntimeTest, SuspendedWriterSeesOwnBufferedStores) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  Rt().TxSuspend();
  EXPECT_EQ(cell.Load(), 2u);  // own speculative value, non-transactionally
  Rt().TxResume();
  Rt().TxCommit();
  EXPECT_EQ(cell.LoadDirect(), 2u);
}

TEST_F(HtmRuntimeTest, TxStoreDoomsTransactionalReader) {
  TxVar<std::uint64_t> cell(0);
  std::atomic<int> phase{0};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    (void)cell.Load();  // read set now contains the line
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(
        {
          (void)cell.Load();  // discover doom
          Rt().TxCommit();
        },
        TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(42);  // store into the reader's read set -> dooms it
    Rt().TxCommit();
  }
  phase.store(2);
  reader.join();
  EXPECT_EQ(cell.LoadDirect(), 42u);
}

// A tracked reader in thread slot >= 512 has its summary bit in a later
// summary word than slot 0's. A conflicting store must still find and doom
// it, and the reader must release its bit on abort.
TEST_F(HtmRuntimeTest, NonTxStoreDoomsTrackedReaderInHighThreadSlot) {
  const std::uint32_t first_high_slot = 512;
  // Claim every free slot below the high range; the registry hands out the
  // lowest free slot, so the reader thread registers into the range.
  ThreadRegistry& registry = ThreadRegistry::Global();
  std::vector<std::uint32_t> fillers;
  std::uint32_t claimed = registry.Register();
  while (claimed < first_high_slot) {
    fillers.push_back(claimed);
    claimed = registry.Register();
  }
  registry.Unregister(claimed);  // the reader takes this one

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  Cell cell;
  ConflictTable& table = Rt().conflict_table();
  const std::uint32_t index = table.IndexFor(&cell.v);
  std::atomic<int> phase{0};
  std::atomic<std::uint32_t> reader_slot{kInvalidThreadSlot};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    reader_slot.store(slot.slot());
    Rt().TxBegin(TxKind::kHtm);
    (void)cell.v.Load();  // tracked load: sets the reader's summary and reader bits
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    try {
      Rt().TxCommit();
      ADD_FAILURE() << "reader in slot " << slot.slot() << " was not doomed";
    } catch (const TxAbortException& abort) {
      EXPECT_EQ(abort.cause(), AbortCause::kConflictNonTx);
    }
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  EXPECT_GE(reader_slot.load(), first_high_slot);
  EXPECT_TRUE(table.TestReaderBit(index, reader_slot.load()));
  cell.v.Store(7);  // uninstrumented store: its reader scan reaches summary word 8
  phase.store(2);
  reader.join();
  EXPECT_FALSE(table.TestReaderBit(index, reader_slot.load()));
  EXPECT_FALSE(table.IsReader(reader_slot.load()));
  EXPECT_EQ(cell.v.LoadDirect(), 7u);

  for (const std::uint32_t slot : fillers) {
    registry.Unregister(slot);
  }
}

TEST_F(HtmRuntimeTest, TxLoadDoomsConflictingTxWriter) {
  TxVar<std::uint64_t> cell(5);
  std::atomic<int> phase{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(6);
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    EXPECT_EQ(cell.Load(), 5u);  // requester wins: dooms the writer
    Rt().TxCommit();
  }
  phase.store(2);
  writer.join();
  EXPECT_EQ(cell.LoadDirect(), 5u);
}

TEST_F(HtmRuntimeTest, NonTxStoreDoomsWriterAndLandsInBacking) {
  TxVar<std::uint64_t> cell(1);
  std::atomic<int> phase{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(2);
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  cell.Store(99);  // non-transactional store
  phase.store(2);
  writer.join();
  EXPECT_EQ(cell.LoadDirect(), 99u);
}

TEST_F(HtmRuntimeTest, AggregateStoreCommitPublishesAllOrNothing) {
  // A reader polling two cells must never observe x updated but not y
  // (within a single committed transaction's writes, given it reads y
  // after x and the writer writes x and y together).
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  Cell x, y;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    for (std::uint64_t i = 1; i <= 300; ++i) {
      for (;;) {
        try {
          Rt().TxBegin(TxKind::kHtm);
          x.v.Store(i);
          y.v.Store(i);
          Rt().TxCommit();
          break;
        } catch (const TxAbortException&) {
        }
      }
    }
    stop.store(true);
  });

  std::thread reader([&] {
    ScopedThreadSlot slot;
    while (!stop.load()) {
      // y is written before x inside the tx writeback? Order unknown --
      // but aggregate store means: if we see y == i, a later read of x
      // must give >= i.
      const std::uint64_t before = y.v.Load();
      const std::uint64_t after = x.v.Load();
      EXPECT_GE(after, before);
    }
  });

  writer.join();
  reader.join();
  EXPECT_EQ(x.v.LoadDirect(), 300u);
  EXPECT_EQ(y.v.LoadDirect(), 300u);
}

TEST_F(HtmRuntimeTest, PagingInterruptAbortsActiveTransaction) {
  ScopedThreadSlot slot;
  PagingModel paging(PagingModel::Config{.tlb_entries = 2, .page_shift = 12});
  Rt().set_interrupt_source(&paging);

  // Spread cells across many pages to force misses.
  constexpr int kCells = 8;
  std::vector<char> arena(kCells * 8192);
  std::vector<TxVar<std::uint64_t>*> vars;
  for (int i = 0; i < kCells; ++i) {
    vars.push_back(new (&arena[static_cast<std::size_t>(i) * 8192]) TxVar<std::uint64_t>(0));
  }

  bool aborted = false;
  try {
    Rt().TxBegin(TxKind::kHtm);
    for (auto* var : vars) {
      (void)var->Load();
    }
    Rt().TxCommit();
  } catch (const TxAbortException& abort) {
    aborted = true;
    EXPECT_EQ(abort.cause(), AbortCause::kInterrupt);
    EXPECT_FALSE(abort.persistent());
  }
  EXPECT_TRUE(aborted);
  EXPECT_GT(paging.TotalFaults(), 0u);
  Rt().set_interrupt_source(nullptr);
}

TEST_F(HtmRuntimeTest, CellCasDoomsSubscribers) {
  std::atomic<std::uint64_t> lockish{0};  // raw fabric cell, like LockWord's
  std::atomic<int> phase{0};

  std::thread subscriber([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    EXPECT_EQ(Rt().CellLoad(&lockish), 0u);  // subscribe
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  // Acquire "the lock" non-transactionally: must doom the subscriber.
  EXPECT_TRUE(Rt().CellCas(&lockish, 0, 1));
  phase.store(2);
  subscriber.join();
}

TEST_F(HtmRuntimeTest, DoomedTransactionAbortsAtNextAccessInsteadOfWritingThrough) {
  // Regression: when another thread dooms a transaction, the victim's next
  // fabric store must raise the abort -- NOT fall through to the
  // non-transactional path and write backing memory directly (which would
  // partially apply the dead attempt).
  TxVar<std::uint64_t> a(0);
  TxVar<std::uint64_t> b(0);
  std::atomic<int> phase{0};

  std::thread victim([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kRot);
    a.Store(1);
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // We are doomed now; this store must throw, and `b` must stay 0.
    EXPECT_THROW(b.Store(1), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  a.Store(42);  // non-tx store into the victim's write set -> dooms it
  phase.store(2);
  victim.join();
  EXPECT_EQ(a.LoadDirect(), 42u);
  EXPECT_EQ(b.LoadDirect(), 0u);
}

TEST_F(HtmRuntimeTest, DoomedSuspendedEscapeRegionKeepsRunning) {
  // Dual of the above: while *suspended*, the thread's accesses are escape
  // actions and must keep executing non-transactionally even after a doom;
  // the abort surfaces at commit.
  TxVar<std::uint64_t> a(0);
  TxVar<std::uint64_t> scratch(0);
  std::atomic<int> phase{0};

  std::thread victim([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    a.Store(1);
    Rt().TxSuspend();
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // Doomed, but suspended: escape accesses still work.
    scratch.Store(7);
    EXPECT_EQ(scratch.Load(), 7u);
    Rt().TxResume();
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  a.Store(42);
  phase.store(2);
  victim.join();
  EXPECT_EQ(a.LoadDirect(), 42u);
  EXPECT_EQ(scratch.LoadDirect(), 7u);
}

// --- FORTH-style limited tracking (HtmConfig::tracked_read_lines etc.) ---
//
// Only the first K distinct lines are conflict-tracked; line K+1 is
// invisible to detection, so a conflicting store there neither dooms the
// reader nor registers anywhere. The txsan oracle must agree that this is
// *modeled hardware behavior*, not a data race: in analysis builds the
// _analysis ctest variant runs these same cases with abort_on_violation on,
// and the explicit violation-count delta below pins it down.

TEST_F(HtmRuntimeTest, LimitedTrackingIgnoresConflictBeyondTrackedLines) {
  HtmConfig config = Rt().config();
  config.tracked_read_lines = 2;
  Rt().set_config(config);

#ifdef RWLE_ANALYSIS
  const std::uint64_t violations_before = txsan::TxSan::Global().violation_count();
#endif

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(3);
  std::atomic<int> phase{0};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    (void)cells[0].v.Load();  // tracked line 1
    (void)cells[1].v.Load();  // tracked line 2
    EXPECT_EQ(cells[2].v.Load(), 0u);  // line K+1: untracked
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // The conflicting store on the untracked line did not doom us -- a
    // re-read even observes the new value mid-transaction (torn snapshot),
    // and the commit goes through. This is the limited-tracking hazard the
    // portability matrix measures; a full-tracking facility would have
    // doomed the transaction at the store.
    EXPECT_EQ(cells[2].v.Load(), 99u);
    Rt().TxCommit();
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  cells[2].v.Store(99);  // non-tx store into the *untracked* part of the scan
  phase.store(2);
  reader.join();

#ifdef RWLE_ANALYSIS
  // Losing the conflict is the configured TM model at work, not a race:
  // the oracle's write mirror marks untracked entries exempt.
  EXPECT_EQ(txsan::TxSan::Global().violation_count(), violations_before);
#endif
}

TEST_F(HtmRuntimeTest, LimitedTrackingStillDoomsWithinTrackedLines) {
  HtmConfig config = Rt().config();
  config.tracked_read_lines = 2;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(3);
  std::atomic<int> phase{0};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    (void)cells[0].v.Load();  // tracked
    (void)cells[1].v.Load();  // tracked
    (void)cells[2].v.Load();  // untracked
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // Same scan, but the store hit a *tracked* line: doomed as usual.
    EXPECT_THROW(
        {
          (void)cells[0].v.Load();
          Rt().TxCommit();
        },
        TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  cells[0].v.Store(99);
  phase.store(2);
  reader.join();
}

TEST_F(HtmRuntimeTest, LimitedTrackingDisablesCapacityAborts) {
  // A limited-tracking facility does not *abort* past its budget -- it
  // silently stops tracking (the whole point of the hazard). Both capacity
  // limits are set below the footprint to prove neither fires, and every
  // buffered store must still be written back on commit.
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 4;
  config.max_write_lines = 4;
  config.tracked_read_lines = 4;
  config.tracked_write_lines = 4;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(10);

  Rt().TxBegin(TxKind::kHtm);
  for (auto& cell : cells) {
    (void)cell.v.Load();  // 10 lines > max_read_lines: no kCapacityRead
  }
  for (auto& cell : cells) {
    cell.v.Store(7);  // 10 lines > max_write_lines: no kCapacityWrite
  }
  Rt().TxCommit();
  for (auto& cell : cells) {
    EXPECT_EQ(cell.v.LoadDirect(), 7u);
  }
}

}  // namespace
}  // namespace rwle
