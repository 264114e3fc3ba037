// Verifies the per-transaction set logs: commit and abort must clear exactly
// the conflict-table slots the transaction touched -- the whole table is
// clean afterwards, and lines that alias to one slot are logged (and
// released) once. Also unit-tests TxWriteSet, the open-addressed redo
// buffer behind the write hot path (src/htm/tx_write_set.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/thread_registry.h"
#include "src/htm/conflict_table.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/tx_write_set.h"

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

struct alignas(kCacheLineBytes) Line {
  std::atomic<std::uint64_t> cell{0};
};

// Counts conflict-table slots with any footprint (owner token, or the
// calling thread's reader bit). A full-table scan is the point: "cleared
// exactly the touched slots" means zero slots anywhere are left dirty. The
// bits are tested directly: ForEachReader would hide them once the thread's
// summary bit is clear.
std::uint32_t DirtySlotCount() {
  ConflictTable& table = Rt().conflict_table();
  const std::uint32_t self = CurrentThreadSlot();
  std::uint32_t dirty = 0;
  for (std::uint32_t index = 0; index < ConflictTable::kSlotCount; ++index) {
    const bool any =
        table.SlotAt(index).writer.load() != 0 || table.TestReaderBit(index, self);
    dirty += any ? 1 : 0;
  }
  return dirty;
}

class SetLogTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(DirtySlotCount(), 0u); }

  // Publishes a line's initial value through the fabric. Stack lines of
  // consecutive tests can reuse addresses, and a plain constructor write is
  // invisible to the fabric (and to txsan's linearized shadow); a
  // non-transactional fabric store re-seats the address. Leaves no
  // conflict-table footprint.
  static void Prime(Line& line) { Rt().CellStore(&line.cell, 0); }

  ScopedThreadSlot slot_;
};

TEST_F(SetLogTest, CommitClearsExactlyTouchedWriteSlots) {
  Line lines[3];
  // The test below assumes three distinct slots; re-seat would be needed on
  // the (astronomically unlikely) chance stack lines alias.
  ConflictTable& table = Rt().conflict_table();
  ASSERT_NE(table.IndexFor(&lines[0].cell), table.IndexFor(&lines[1].cell));
  ASSERT_NE(table.IndexFor(&lines[0].cell), table.IndexFor(&lines[2].cell));
  ASSERT_NE(table.IndexFor(&lines[1].cell), table.IndexFor(&lines[2].cell));

  Rt().TxBegin(TxKind::kHtm);
  for (Line& line : lines) {
    Rt().CellStore(&line.cell, 7);
  }
  EXPECT_EQ(DirtySlotCount(), 3u);  // exactly the three owned slots
  Rt().TxCommit();

  EXPECT_EQ(DirtySlotCount(), 0u);
  for (Line& line : lines) {
    EXPECT_EQ(line.cell.load(), 7u);  // write-back happened
  }
}

TEST_F(SetLogTest, CommitClearsExactlyTouchedReadSlots) {
  Line lines[3];
  for (Line& line : lines) {
    Prime(line);
  }
  Rt().TxBegin(TxKind::kHtm);
  for (Line& line : lines) {
    (void)Rt().CellLoad(&line.cell);
  }
  EXPECT_EQ(DirtySlotCount(), 3u);  // exactly the three reader bits
  Rt().TxCommit();
  EXPECT_EQ(DirtySlotCount(), 0u);
}

TEST_F(SetLogTest, AbortClearsExactlyTouchedSlots) {
  Line read_line;
  Line write_line;
  Prime(read_line);
  Prime(write_line);
  try {
    Rt().TxBegin(TxKind::kHtm);
    (void)Rt().CellLoad(&read_line.cell);
    Rt().CellStore(&write_line.cell, 9);
    EXPECT_EQ(DirtySlotCount(), 2u);
    Rt().TxAbort(AbortCause::kExplicit);
    FAIL() << "TxAbort must throw";
  } catch (const TxAbortException&) {
  }
  EXPECT_EQ(DirtySlotCount(), 0u);
  EXPECT_EQ(write_line.cell.load(), 0u);  // speculative store discarded
}

// Two distinct lines hashing to one conflict-table slot must be logged once
// (the second access sees the slot already owned / the bit already set) and
// released cleanly by one commit.
TEST_F(SetLogTest, AliasedLinesShareOneSlotAndOneRelease) {
  ConflictTable& table = Rt().conflict_table();

  // Birthday-search heap lines until two alias to the same slot index; with
  // 2^16 slots a pair is expected after a few hundred allocations.
  std::vector<std::unique_ptr<Line>> lines;
  std::vector<std::uint32_t> seen;
  Line* first = nullptr;
  Line* second = nullptr;
  while (second == nullptr) {
    ASSERT_LT(lines.size(), 100000u) << "no aliasing pair found";
    lines.push_back(std::make_unique<Line>());
    const std::uint32_t index = table.IndexFor(&lines.back()->cell);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      if (seen[i] == index) {
        first = lines[i].get();
        second = lines.back().get();
        break;
      }
    }
    seen.push_back(index);
  }
  ASSERT_EQ(table.IndexFor(&first->cell), table.IndexFor(&second->cell));

  Rt().TxBegin(TxKind::kHtm);
  Rt().CellStore(&first->cell, 1);
  Rt().CellStore(&second->cell, 2);
  EXPECT_EQ(DirtySlotCount(), 1u);  // one slot despite two lines
  Rt().TxCommit();

  EXPECT_EQ(DirtySlotCount(), 0u);
  EXPECT_EQ(first->cell.load(), 1u);
  EXPECT_EQ(second->cell.load(), 2u);

  // Same shape on the read side: both loads fold into one reader bit.
  Rt().TxBegin(TxKind::kHtm);
  (void)Rt().CellLoad(&first->cell);
  (void)Rt().CellLoad(&second->cell);
  EXPECT_EQ(DirtySlotCount(), 1u);
  Rt().TxCommit();
  EXPECT_EQ(DirtySlotCount(), 0u);
}

// --- TxWriteSet -------------------------------------------------------------

TEST(TxWriteSetTest, FindOnEmptyIsNull) {
  TxWriteSet set;
  std::atomic<std::uint64_t> cell{0};
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.Find(&cell), nullptr);
}

TEST(TxWriteSetTest, PutFindUpdate) {
  TxWriteSet set;
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  set.Put(&a, 1);
  set.Put(&b, 2);
  ASSERT_NE(set.Find(&a), nullptr);
  EXPECT_EQ(*set.Find(&a), 1u);
  EXPECT_EQ(*set.Find(&b), 2u);
  set.Put(&a, 3);  // overwrite in place, no new entry
  EXPECT_EQ(*set.Find(&a), 3u);
  EXPECT_EQ(set.size(), 2u);
}

TEST(TxWriteSetTest, ClearForgetsEverything) {
  TxWriteSet set;
  std::atomic<std::uint64_t> cells[8];
  for (auto& cell : cells) {
    set.Put(&cell, 5);
  }
  set.Clear();
  EXPECT_TRUE(set.empty());
  for (auto& cell : cells) {
    EXPECT_EQ(set.Find(&cell), nullptr);
  }
  // Reuse after Clear: stale index-table state would surface here.
  set.Put(&cells[0], 11);
  EXPECT_EQ(*set.Find(&cells[0]), 11u);
  EXPECT_EQ(set.size(), 1u);
}

TEST(TxWriteSetTest, GrowthPreservesEntriesAndOrder) {
  TxWriteSet set;
  // Far past the initial capacity, forcing several rehashes.
  std::vector<std::atomic<std::uint64_t>> cells(500);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    set.Put(&cells[i], i);
  }
  EXPECT_EQ(set.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(set.Find(&cells[i]), nullptr);
    EXPECT_EQ(*set.Find(&cells[i]), i);
  }
  // Iteration yields insertion order -- the commit write-back contract.
  std::size_t position = 0;
  for (const TxWriteSet::Entry& entry : set) {
    EXPECT_EQ(entry.cell, &cells[position]);
    EXPECT_EQ(entry.value, position);
    ++position;
  }
  EXPECT_EQ(position, cells.size());
}

}  // namespace
}  // namespace rwle
