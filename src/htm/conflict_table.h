// The simulated coherence directory: a fixed-size, hash-indexed table of
// cache-line slots recording which transaction owns a line for writing and
// which transactions have it in their read set.
//
// Distinct lines may alias to the same slot; that manifests as a false
// conflict, exactly like way-aliasing in a real L2 TM directory.
#ifndef RWLE_SRC_HTM_CONFLICT_TABLE_H_
#define RWLE_SRC_HTM_CONFLICT_TABLE_H_

#include <atomic>
#include <cstdint>

#include "src/common/cpu.h"
#include "src/common/thread_registry.h"

namespace rwle {

// Owner tokens identify (thread slot, transaction epoch) pairs so that a
// stale owner field left by a doomed transaction can never be confused with
// that thread's next transaction. Token 0 means "unowned".
//
// Packing: [ epoch : 52 | thread_slot + 1 : 12 ]. The +1 bias keeps token 0
// reserved for "unowned" while slot 0 stays representable. The 12-bit slot
// field caps the simulator at 4094 concurrently registered threads; the
// static_assert below ties that ceiling to kMaxThreads so widening one
// without the other fails to compile rather than silently aliasing slots.
// Epochs get the remaining 52 bits -- at one transaction per nanosecond
// that wraps after ~52 days, far beyond any run, so wrap-around ABA on the
// epoch field is not defended against.
using OwnerToken = std::uint64_t;

inline constexpr std::uint32_t kOwnerTokenSlotBits = 12;
inline constexpr OwnerToken kOwnerTokenSlotMask =
    (OwnerToken{1} << kOwnerTokenSlotBits) - 1;

static_assert(kMaxThreads <= kOwnerTokenSlotMask - 1,
              "OwnerToken packs thread_slot + 1 into its low "
              "kOwnerTokenSlotBits bits; widen the slot field (and "
              "OwnerTokenSlot/OwnerTokenEpoch) before raising kMaxThreads "
              "past what it can hold");

constexpr OwnerToken MakeOwnerToken(std::uint32_t thread_slot, std::uint64_t epoch) {
  return (epoch << kOwnerTokenSlotBits) | (static_cast<OwnerToken>(thread_slot) + 1);
}

// Inverse of MakeOwnerToken. Calling either on token 0 ("unowned") is
// meaningless; callers test for 0 first.
constexpr std::uint32_t OwnerTokenSlot(OwnerToken token) {
  return static_cast<std::uint32_t>(token & kOwnerTokenSlotMask) - 1;
}

constexpr std::uint64_t OwnerTokenEpoch(OwnerToken token) {
  return token >> kOwnerTokenSlotBits;
}

class ConflictTable {
 public:
  static constexpr std::uint32_t kSlotCountLog2 = 16;
  static constexpr std::uint32_t kSlotCount = 1u << kSlotCountLog2;
  static constexpr std::uint32_t kSummaryWords = kMaxThreads / 64;
  static_assert(kMaxThreads % 64 == 0, "a partial summary word would strand reader slots");

  // The writer token alone on its host line, which every uninstrumented load
  // polls and no reader-tracking RMW invalidates.
  struct alignas(kHostLineBytes) LineSlot {
    std::atomic<OwnerToken> writer{0};
  };

  // One thread's reader bits, one per line slot (8 KiB): only the owner
  // writes it, like a core tracking its read set in its own cache.
  struct alignas(kHostLineBytes) ReaderBitmap {
    std::atomic<std::uint64_t> words[kSlotCount / 64] = {};
  };

  // Maps a shared cell's address to its line slot; cells within one 128-byte
  // line share a slot (false sharing is modeled, not hidden). Hash once per
  // access: fast paths keep IndexFor's result (SlotAt is a plain array load)
  // and log it, so commit/abort never re-hash. SlotFor is the one-shot form
  // for paths that only need the writer token (uninstrumented loads).
  LineSlot& SlotFor(const void* address) { return slots_[IndexFor(address)]; }

  std::uint32_t IndexFor(const void* address) const {
    const auto line = reinterpret_cast<std::uintptr_t>(address) >> kCacheLineShift;
    return static_cast<std::uint32_t>(Mix(line) & (kSlotCount - 1));
  }

  LineSlot& SlotAt(std::uint32_t index) { return slots_[index]; }

  // Reader bits of slot `index`, in `thread_slot`'s own bitmap. These RMWs
  // stay seq_cst: they are the footprint publications the dooming protocol
  // synchronizes through (DESIGN.md §3).
  void SetReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    ReaderWord(index, thread_slot).fetch_or(std::uint64_t{1} << (index % 64));
  }

  void ClearReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    ReaderWord(index, thread_slot).fetch_and(~(std::uint64_t{1} << (index % 64)));
  }

  bool TestReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    return (ReaderWord(index, thread_slot).load() >> (index % 64)) & 1;
  }

  // The thread's "has tracked reads" summary bit: set before a transaction's
  // first reader bit, cleared after its last (seq_cst; DESIGN.md §3).
  void EnterReader(std::uint32_t thread_slot) {
    summary_[thread_slot / 64].fetch_or(std::uint64_t{1} << (thread_slot % 64));
  }

  void ExitReader(std::uint32_t thread_slot) {
    summary_[thread_slot / 64].fetch_and(~(std::uint64_t{1} << (thread_slot % 64)));
  }

  bool IsReader(std::uint32_t thread_slot) {
    return (summary_[thread_slot / 64].load() >> (thread_slot % 64)) & 1;
  }

  // Calls fn(thread_slot) for every reader bit set on slot `index`, loading
  // bitmaps only of threads whose summary bit is set. Summary words past the
  // registry watermark are skipped: it never decreases and a setter's slot
  // was below it at set time, so the bound never hides a live reader.
  template <typename Fn>
  void ForEachReader(std::uint32_t index, Fn&& fn) {
    const std::uint32_t live_words = (ThreadRegistry::Global().HighWatermark() + 63) / 64;
    const std::uint32_t words = live_words < kSummaryWords ? live_words : kSummaryWords;
    for (std::uint32_t word = 0; word < words; ++word) {
      std::uint64_t readers = summary_[word].load();
      while (readers != 0) {
        const std::uint32_t thread_slot = word * 64 + __builtin_ctzll(readers);
        readers &= readers - 1;
        if (TestReaderBit(index, thread_slot)) {
          fn(thread_slot);
        }
      }
    }
  }

 private:
  std::atomic<std::uint64_t>& ReaderWord(std::uint32_t index, std::uint32_t thread_slot) {
    return readers_[thread_slot].words[index / 64];
  }

  static std::uint64_t Mix(std::uint64_t x) {
    // Fibonacci-style mixer; cheap and spreads sequential lines.
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
  }

  LineSlot slots_[kSlotCount];
  ReaderBitmap readers_[kMaxThreads];
  alignas(kHostLineBytes) std::atomic<std::uint64_t> summary_[kSummaryWords] = {};
};

}  // namespace rwle

#endif  // RWLE_SRC_HTM_CONFLICT_TABLE_H_
