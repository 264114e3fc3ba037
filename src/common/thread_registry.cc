#include "src/common/thread_registry.h"

#ifdef RWLE_ANALYSIS
#include "src/common/analysis_hooks.h"
#endif
#include "src/common/check.h"
#include "src/common/sched_hooks.h"

namespace rwle {

std::uint32_t ThreadRegistry::Register() {
  for (std::uint32_t word = 0; word < kInUseWords; ++word) {
    // Relaxed: the claiming CAS below re-validates the word; a stale first
    // read only costs one retry on the same word.
    std::uint64_t bits = in_use_words_[word].load(std::memory_order_relaxed);
    while (bits != ~std::uint64_t{0}) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(~bits));
      const std::uint64_t mask = std::uint64_t{1} << bit;
      // Acq_rel CAS: acquire the previous occupant's release in Unregister()
      // so slot reuse happens-after its teardown; release publishes the
      // claim to the IsInUse() acquire loads of quiescence/aggregation
      // scanners. Failure reloads `bits`, so the retry sees the lost race.
      if (in_use_words_[word].compare_exchange_weak(bits, bits | mask,
                                                    std::memory_order_acq_rel,
                                                    std::memory_order_relaxed)) {
        const std::uint32_t slot = word * 64 + bit;
        // Raise the scan watermark if this is the highest slot seen so far.
        // Relaxed: the CAS below re-validates the value; a stale first read
        // only costs one retry.
        std::uint32_t watermark = high_watermark_.load(std::memory_order_relaxed);
        // Acq_rel CAS: the release side publishes the raise to
        // HighWatermark()'s acquire readers, so a scanner that sees the new
        // bound also sees this slot registered.
        while (watermark < slot + 1 &&
               !high_watermark_.compare_exchange_weak(watermark, slot + 1,
                                                      std::memory_order_acq_rel)) {
        }
        return slot;
      }
    }
  }
  RWLE_CHECK(false && "thread registry exhausted (kMaxThreads)");
  return kInvalidThreadSlot;
}

void ThreadRegistry::Unregister(std::uint32_t slot) {
  RWLE_CHECK(slot < kMaxThreads);
  const std::uint64_t mask = std::uint64_t{1} << (slot % 64);
  // Release: everything this thread did happens-before a later Register()
  // that recycles the slot (acq_rel CAS there) or an IsInUse() observer.
  const std::uint64_t prev =
      in_use_words_[slot / 64].fetch_and(~mask, std::memory_order_release);
  RWLE_CHECK((prev & mask) != 0 && "unregistering a slot that is not in use");
}

ScopedThreadSlot::ScopedThreadSlot() : slot_(ThreadRegistry::Global().Register()) {
  RWLE_CHECK(current_ == kInvalidThreadSlot &&
             "thread registered twice (nested ScopedThreadSlot)");
  current_ = slot_;
#ifdef RWLE_ANALYSIS
  analysis_hooks::NotifyThreadRegister(slot_);
#endif
  // After registration, so a context switch here cannot reorder slot
  // assignment: under the scheduler, slots are handed out in schedule order.
  RWLE_SCHED_POINT(kThreadRegister, nullptr);
}

ScopedThreadSlot::~ScopedThreadSlot() {
  RWLE_SCHED_POINT(kThreadUnregister, nullptr);
#ifdef RWLE_ANALYSIS
  analysis_hooks::NotifyThreadUnregister(slot_);
#endif
  current_ = kInvalidThreadSlot;
  ThreadRegistry::Global().Unregister(slot_);
}

}  // namespace rwle
