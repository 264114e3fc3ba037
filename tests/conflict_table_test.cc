// Unit tests for conflict-table primitives: owner-token packing, reader-bit
// and summary-bit manipulation, their release on every transaction exit,
// address-to-slot mapping (same line -> same slot), and the status-word
// packing used for cross-thread dooming.
#include "src/htm/conflict_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/tx_context.h"
#include "src/htm/tx_write_set.h"
#include "src/memory/tx_var.h"

namespace rwle {
namespace {

TEST(OwnerTokenTest, PacksAndUnpacksSlotAndEpoch) {
  // Slots past 255 exercise the widened 12-bit slot field (the pre-widening
  // packing kept only 8 bits and would alias these).
  for (std::uint32_t slot : {0u, 1u, 63u, 127u, 255u, 256u, kMaxThreads - 1}) {
    for (std::uint64_t epoch : {0ull, 1ull, 4096ull, (1ull << 40), (1ull << 48)}) {
      const OwnerToken token = MakeOwnerToken(slot, epoch);
      EXPECT_NE(token, 0u);  // 0 is reserved for "unowned"
      EXPECT_EQ(OwnerTokenSlot(token), slot);
      EXPECT_EQ(OwnerTokenEpoch(token), epoch);
    }
  }
}

TEST(OwnerTokenTest, DistinctHighSlotsYieldDistinctTokens) {
  // Adjacent high slots under one epoch must never collide; this is exactly
  // the aliasing an 8-bit field would produce for slots 256 apart.
  const std::uint64_t epoch = 77;
  EXPECT_NE(MakeOwnerToken(0, epoch), MakeOwnerToken(256, epoch));
  EXPECT_NE(MakeOwnerToken(1, epoch), MakeOwnerToken(257, epoch));
  EXPECT_NE(MakeOwnerToken(kMaxThreads - 1, epoch),
            MakeOwnerToken(kMaxThreads - 257, epoch));
}

TEST(StatusWordTest, PacksPhaseCauseEpoch) {
  const std::uint64_t status =
      PackStatus(12345, AbortCause::kCapacityWrite, TxPhase::kDoomed);
  EXPECT_EQ(StatusEpoch(status), 12345u);
  EXPECT_EQ(StatusCause(status), AbortCause::kCapacityWrite);
  EXPECT_EQ(StatusPhase(status), TxPhase::kDoomed);
}

TEST(ConflictTableTest, SameLineMapsToSameSlot) {
  auto table = std::make_unique<ConflictTable>();
  alignas(kCacheLineBytes) char line[kCacheLineBytes * 2];
  EXPECT_EQ(&table->SlotFor(&line[0]), &table->SlotFor(&line[kCacheLineBytes - 1]));
  // Adjacent lines land in different slots with overwhelming probability
  // (the mixer spreads sequential lines).
  EXPECT_NE(&table->SlotFor(&line[0]), &table->SlotFor(&line[kCacheLineBytes]));
  EXPECT_EQ(table->IndexFor(&line[0]), table->IndexFor(&line[8]));
}

TEST(ConflictTableTest, SlotAtMatchesIndexFor) {
  auto table = std::make_unique<ConflictTable>();
  int object = 0;
  EXPECT_EQ(&table->SlotAt(table->IndexFor(&object)), &table->SlotFor(&object));
}

// The writer token every uninstrumented load polls sits alone on its host
// line, and each thread's reader bitmap spans whole host lines of its own.
static_assert(sizeof(ConflictTable::LineSlot) == kHostLineBytes);
static_assert(alignof(ConflictTable::LineSlot) == kHostLineBytes);
static_assert(sizeof(ConflictTable::ReaderBitmap) == ConflictTable::kSlotCount / 8);
static_assert(sizeof(ConflictTable::ReaderBitmap) % kHostLineBytes == 0);
static_assert(alignof(ConflictTable::ReaderBitmap) == kHostLineBytes);

TEST(ConflictTableTest, ReaderBitsAreIndependent) {
  // Thread slots on both sides of each summary-word boundary, and slot
  // indices on both sides of a bitmap-word boundary. ForEachReader scans
  // only up to the registry watermark, so raise it to kMaxThreads first.
  std::vector<std::uint32_t> claimed;
  while (ThreadRegistry::Global().HighWatermark() < kMaxThreads) {
    claimed.push_back(ThreadRegistry::Global().Register());
  }
  const std::vector<std::uint32_t> threads = {0u, 63u, 64u, 511u, 512u, kMaxThreads - 1};
  const std::vector<std::uint32_t> indices = {42u, 63u, 64u, ConflictTable::kSlotCount - 1};
  auto table = std::make_unique<ConflictTable>();
  for (std::uint32_t thread : threads) {
    table->EnterReader(thread);
    EXPECT_TRUE(table->IsReader(thread));
    for (std::uint32_t index : indices) {
      EXPECT_FALSE(table->TestReaderBit(index, thread));
      table->SetReaderBit(index, thread);
      EXPECT_TRUE(table->TestReaderBit(index, thread));
    }
  }
  for (std::uint32_t index : indices) {
    std::vector<std::uint32_t> scanned;
    table->ForEachReader(index, [&](std::uint32_t thread) { scanned.push_back(thread); });
    EXPECT_EQ(scanned, threads) << "index " << index;
  }
  // Neighbouring slots stay clean.
  for (std::uint32_t other : {41u, 43u, 62u, 65u}) {
    table->ForEachReader(other, [&](std::uint32_t thread) {
      ADD_FAILURE() << "slot " << other << " has reader " << thread;
    });
  }

  // Clearing one bit leaves the others, across both kinds of word boundary.
  table->ClearReaderBit(63, 64);
  table->ClearReaderBit(64, 511);
  for (std::uint32_t thread : threads) {
    for (std::uint32_t index : indices) {
      const bool cleared = (thread == 64 && index == 63) || (thread == 511 && index == 64);
      EXPECT_EQ(table->TestReaderBit(index, thread), !cleared)
          << "thread " << thread << " index " << index;
    }
  }

  // A clear summary bit hides the thread from the scan; the bitmap stays.
  table->ExitReader(512);
  EXPECT_FALSE(table->IsReader(512));
  EXPECT_TRUE(table->IsReader(511));
  EXPECT_FALSE(table->IsReader(513));  // never entered
  std::vector<std::uint32_t> scanned;
  table->ForEachReader(42, [&](std::uint32_t thread) { scanned.push_back(thread); });
  EXPECT_EQ(scanned, (std::vector<std::uint32_t>{0u, 63u, 64u, 511u, kMaxThreads - 1}));
  EXPECT_TRUE(table->TestReaderBit(42, 512));

  for (std::uint32_t slot : claimed) {
    ThreadRegistry::Global().Unregister(slot);
  }
}

// Every release path -- commit, abort, chained piece -- clears the
// transaction's reader bits and then its summary bit.
TEST(ConflictTableTest, ReleasePathsClearSummaryAndReaderBits) {
  ScopedThreadSlot slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  ConflictTable& table = runtime.conflict_table();
  struct alignas(kCacheLineBytes) Line {
    TxVar<std::uint64_t> v;
  };
  Line lines[3];
  std::vector<std::uint32_t> indices;
  for (const Line& line : lines) {
    indices.push_back(table.IndexFor(&line.v));
  }
  auto load_all = [&] {
    for (Line& line : lines) {
      (void)line.v.Load();
    }
    EXPECT_TRUE(table.IsReader(slot.slot()));
    for (std::uint32_t index : indices) {
      EXPECT_TRUE(table.TestReaderBit(index, slot.slot()));
    }
  };
  auto expect_released = [&](const char* path) {
    EXPECT_FALSE(table.IsReader(slot.slot())) << path;
    for (std::uint32_t index : indices) {
      EXPECT_FALSE(table.TestReaderBit(index, slot.slot())) << path << " index " << index;
    }
  };

  runtime.TxBegin(TxKind::kHtm);
  load_all();
  runtime.TxCommit();
  expect_released("commit");

  runtime.TxBegin(TxKind::kHtm);
  load_all();
  EXPECT_THROW(runtime.TxAbort(AbortCause::kExplicit), TxAbortException);
  expect_released("abort");

  TxWriteSet carryover;
  runtime.BeginChain(&carryover);
  runtime.TxBegin(TxKind::kHtm);
  load_all();
  runtime.TxCommitChained(carryover);
  runtime.EndChain(/*committed=*/false);
  expect_released("chained piece");
}

TEST(ConflictTableTest, WriterFieldStartsUnowned) {
  auto table = std::make_unique<ConflictTable>();
  EXPECT_EQ(table->SlotAt(0).writer.load(), 0u);
}

}  // namespace
}  // namespace rwle
