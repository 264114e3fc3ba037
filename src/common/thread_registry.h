// Process-wide registry mapping worker threads to dense slot indices.
// The HTM simulator's conflict tracking, RW-LE's per-thread epoch clocks and
// the statistics shards are all arrays indexed by slot. Slots are recycled
// when a thread unregisters, so long test runs do not exhaust the table.
#ifndef RWLE_SRC_COMMON_THREAD_REGISTRY_H_
#define RWLE_SRC_COMMON_THREAD_REGISTRY_H_

#include <atomic>
#include <cstdint>

namespace rwle {

inline constexpr std::uint32_t kMaxThreads = 1024;
inline constexpr std::uint32_t kInvalidThreadSlot = UINT32_MAX;

class ThreadRegistry {
 public:
  // The single process-wide registry. Constant-initialised (its state is
  // all-zero atomics), so the inline accessor needs no guard and has no
  // initialisation-order hazard.
  static ThreadRegistry& Global() {
    static constinit ThreadRegistry registry;
    return registry;
  }

  // Claims a free slot. Aborts if more than kMaxThreads threads register.
  std::uint32_t Register();

  void Unregister(std::uint32_t slot);

  // One past the largest slot ever handed out; scan bound for quiescence and
  // statistics aggregation.
  std::uint32_t HighWatermark() const {
    // Acquire: pairs with the release bump in Register() so a scanner that
    // observes the new watermark also observes the slot's registration.
    return high_watermark_.load(std::memory_order_acquire);
  }

  bool IsInUse(std::uint32_t slot) const {
    // Acquire: pairs with the release ordering of the claiming CAS in
    // Register() -- seeing the slot in use implies seeing everything its
    // thread did before that.
    return (in_use_words_[slot / 64].load(std::memory_order_acquire) >>
            (slot % 64)) &
           1;
  }

 private:
  // Occupancy is a bitmap rather than an array of atomic<bool> so that
  // Register() scans kMaxThreads / 64 words instead of kMaxThreads flags --
  // at 1024 slots that is 16 loads, not 1024, and slot recycling stays a
  // single CAS on the word holding the slot's bit.
  static constexpr std::uint32_t kInUseWords = kMaxThreads / 64;
  static_assert(kMaxThreads % 64 == 0,
                "the occupancy bitmap packs 64 slots per word; a non-multiple "
                "would leave the tail slots unreachable");

  ThreadRegistry() = default;

  std::atomic<std::uint64_t> in_use_words_[kInUseWords] = {};
  std::atomic<std::uint32_t> high_watermark_{0};
};

// RAII registration. Benchmark workers and tests construct one at thread
// start; everything downstream reads CurrentThreadSlot().
class ScopedThreadSlot {
 public:
  ScopedThreadSlot();
  ~ScopedThreadSlot();

  ScopedThreadSlot(const ScopedThreadSlot&) = delete;
  ScopedThreadSlot& operator=(const ScopedThreadSlot&) = delete;

  std::uint32_t slot() const { return slot_; }

 private:
  friend std::uint32_t CurrentThreadSlot();

  // The calling thread's slot. Constant-initialised, so every fabric access
  // reads it with one thread-pointer-relative load: no TLS wrapper call and
  // no dependence on static-initialisation order.
  static inline constinit thread_local std::uint32_t current_ = kInvalidThreadSlot;

  std::uint32_t slot_;
};

// Returns this thread's slot, or kInvalidThreadSlot if not registered.
inline std::uint32_t CurrentThreadSlot() { return ScopedThreadSlot::current_; }

}  // namespace rwle

#endif  // RWLE_SRC_COMMON_THREAD_REGISTRY_H_
