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
  static constexpr std::uint32_t kReaderWords = kMaxThreads / 64;
  static_assert(kMaxThreads % 64 == 0,
                "kReaderWords packs 64 reader bits per word; a non-multiple "
                "kMaxThreads would silently round reader capacity down");
  // Reader words stored in the slot itself: one host line of them, covering
  // thread slots 0..511. Words past that live in the overflow array, which
  // only threads in slots >= 512 ever touch.
  static constexpr std::uint32_t kInlineReaderWords =
      kHostLineBytes / sizeof(std::uint64_t);
  static constexpr std::uint32_t kOverflowReaderWords = kReaderWords - kInlineReaderWords;
  static_assert(kReaderWords > kInlineReaderWords,
                "kMaxThreads fits the inline reader words; drop the overflow "
                "array rather than declaring it empty");

  // 128 B: the writer token alone on the first host line, the inline reader
  // words on the second. Every uninstrumented load polls `writer`, while
  // HTM read tracking does fetch_or/fetch_and on `readers`; sharing one host
  // line would make each tracked read invalidate the line every reader
  // polls.
  struct alignas(2 * kHostLineBytes) LineSlot {
    alignas(kHostLineBytes) std::atomic<OwnerToken> writer{0};
    alignas(kHostLineBytes) std::atomic<std::uint64_t> readers[kInlineReaderWords] = {};
  };

  // Maps a shared cell's address to its line slot. Cells within one
  // 128-byte line share a slot (false sharing is modeled, not hidden).
  //
  // Hot-path contract: hash once per access. Fast paths call IndexFor once,
  // keep the index (SlotAt is a plain array load), and log it in the
  // transaction's set logs, so commit/abort release the footprint without
  // ever re-hashing. SlotFor is the one-shot form for paths that only need
  // the writer token (uninstrumented loads).
  LineSlot& SlotFor(const void* address) { return slots_[IndexFor(address)]; }

  std::uint32_t IndexFor(const void* address) const {
    const auto line = reinterpret_cast<std::uintptr_t>(address) >> kCacheLineShift;
    return static_cast<std::uint32_t>(Mix(line) & (kSlotCount - 1));
  }

  LineSlot& SlotAt(std::uint32_t index) { return slots_[index]; }

  // Reader bits of slot `index`. These RMWs stay seq_cst: they are the
  // footprint publications the dooming protocol synchronizes through
  // (DESIGN.md §3).
  void SetReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    ReaderWord(index, thread_slot / 64).fetch_or(std::uint64_t{1} << (thread_slot % 64));
  }

  void ClearReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    ReaderWord(index, thread_slot / 64).fetch_and(~(std::uint64_t{1} << (thread_slot % 64)));
  }

  bool TestReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    return (ReaderWord(index, thread_slot / 64).load() >> (thread_slot % 64)) & 1;
  }

  // Calls fn(thread_slot) for every reader bit set on slot `index`. Scans
  // only reader words that can hold a registered thread's bit: the registry
  // watermark is monotonic non-decreasing and a setter's slot was below it
  // at set time, so the bound never hides a live reader -- and a run whose
  // threads all sit below slot 512 never reads the overflow array.
  template <typename Fn>
  void ForEachReader(std::uint32_t index, Fn&& fn) {
    const std::uint32_t live_words = (ThreadRegistry::Global().HighWatermark() + 63) / 64;
    const std::uint32_t words = live_words < kReaderWords ? live_words : kReaderWords;
    for (std::uint32_t word = 0; word < words; ++word) {
      std::uint64_t bits = ReaderWord(index, word).load();
      while (bits != 0) {
        const int bit = __builtin_ctzll(bits);
        bits &= bits - 1;
        fn(word * 64 + static_cast<std::uint32_t>(bit));
      }
    }
  }

 private:
  struct alignas(kHostLineBytes) OverflowWords {
    std::atomic<std::uint64_t> words[kOverflowReaderWords] = {};
  };

  std::atomic<std::uint64_t>& ReaderWord(std::uint32_t index, std::uint32_t word) {
    return word < kInlineReaderWords ? slots_[index].readers[word]
                                     : overflow_[index].words[word - kInlineReaderWords];
  }

  static std::uint64_t Mix(std::uint64_t x) {
    // Fibonacci-style mixer; cheap and spreads sequential lines.
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
  }

  LineSlot slots_[kSlotCount];
  OverflowWords overflow_[kSlotCount];
};

}  // namespace rwle

#endif  // RWLE_SRC_HTM_CONFLICT_TABLE_H_
