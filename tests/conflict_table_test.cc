// Unit tests for conflict-table primitives: owner-token packing, reader-bit
// manipulation, address-to-slot mapping (same line -> same slot), and the
// status-word packing used for cross-thread dooming.
#include "src/htm/conflict_table.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/thread_registry.h"
#include "src/htm/tx_context.h"

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

// The writer token every uninstrumented load polls must not share a host
// line with the reader words HTM read tracking writes.
static_assert(sizeof(ConflictTable::LineSlot) == 128);
static_assert(offsetof(ConflictTable::LineSlot, writer) / kHostLineBytes !=
              offsetof(ConflictTable::LineSlot, readers) / kHostLineBytes);
static_assert(sizeof(ConflictTable::LineSlot::readers) == kHostLineBytes);

TEST(ConflictTableTest, ReaderBitsAreIndependent) {
  // Threads 0..511 land in the slot's inline reader words, 512..1023 in the
  // overflow words; the set spans both and every word boundary around 512.
  // ForEachReader scans only up to the registry watermark, so raise it to
  // kMaxThreads first.
  std::vector<std::uint32_t> claimed;
  while (ThreadRegistry::Global().HighWatermark() < kMaxThreads) {
    claimed.push_back(ThreadRegistry::Global().Register());
  }
  const std::vector<std::uint32_t> threads = {0u, 5u, 63u, 64u, 127u, 511u, 512u,
                                              513u, 575u, 576u, kMaxThreads - 1};
  auto table = std::make_unique<ConflictTable>();
  const std::uint32_t index = 42;
  for (std::uint32_t thread : threads) {
    EXPECT_FALSE(table->TestReaderBit(index, thread));
    table->SetReaderBit(index, thread);
    EXPECT_TRUE(table->TestReaderBit(index, thread));
  }
  std::vector<std::uint32_t> scanned;
  table->ForEachReader(index, [&](std::uint32_t thread) { scanned.push_back(thread); });
  EXPECT_EQ(scanned, threads);
  // Neighbouring slots stay clean: each slot has its own overflow words.
  for (std::uint32_t other : {index - 1, index + 1}) {
    table->ForEachReader(other, [&](std::uint32_t thread) {
      ADD_FAILURE() << "slot " << other << " has reader " << thread;
    });
  }

  // Clearing one leaves the others, including across reader-word boundaries
  // and the inline/overflow boundary.
  for (std::uint32_t cleared : {64u, 511u, 512u, kMaxThreads - 1}) {
    table->ClearReaderBit(index, cleared);
    EXPECT_FALSE(table->TestReaderBit(index, cleared));
  }
  EXPECT_TRUE(table->TestReaderBit(index, 0));
  EXPECT_TRUE(table->TestReaderBit(index, 63));
  EXPECT_TRUE(table->TestReaderBit(index, 127));
  EXPECT_TRUE(table->TestReaderBit(index, 513));
  EXPECT_TRUE(table->TestReaderBit(index, 576));

  for (std::uint32_t slot : claimed) {
    ThreadRegistry::Global().Unregister(slot);
  }
}

TEST(ConflictTableTest, WriterFieldStartsUnowned) {
  auto table = std::make_unique<ConflictTable>();
  EXPECT_EQ(table->SlotAt(0).writer.load(), 0u);
}

}  // namespace
}  // namespace rwle
