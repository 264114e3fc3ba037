// RW-LE basic algorithm (paper, Algorithm 1): HTM-only writers serialized by
// a spin lock, blind retry on abort, no fallback paths.
//
// This is the pedagogical core of the paper, kept as a test-only class for
// the unit and integration tests (rwle_lock_test, integration_test); the
// library's lock is RwLeLock. It must only be used with write critical
// sections that fit in HTM capacity (a capacity abort would retry forever --
// exactly why Algorithm 2 adds fallback paths).
#ifndef RWLE_TESTS_RWLE_BASIC_LOCK_H_
#define RWLE_TESTS_RWLE_BASIC_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/preemption.h"
#include "src/rwle/epoch_clocks.h"

namespace rwle {

class RwLeBasicLock {
 public:
  RwLeBasicLock() = default;
  RwLeBasicLock(const RwLeBasicLock&) = delete;
  RwLeBasicLock& operator=(const RwLeBasicLock&) = delete;

  // Lines 11-15: readers only toggle their epoch clock.
  template <typename Fn>
  void Read(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    const PreemptionDeferScope defer;  // yield only after the clock is even
    clocks_.Enter(slot);
    try {
      fn();
    } catch (...) {
      clocks_.Exit(slot);
      throw;
    }
    clocks_.Exit(slot);
  }

  // Lines 16-26: serialize writers with a spin lock, execute speculatively,
  // release the lock at suspend time, drain readers, commit.
  template <typename Fn>
  void Write(Fn&& fn) {
    RWLE_CHECK(CurrentThreadSlot() != kInvalidThreadSlot);
    HtmRuntime& runtime = HtmRuntime::Global();
    const AnalysisElidedWriteScope txsan_scope(runtime, CurrentThreadSlot());
    for (;;) {
      AcquireWriterLock();
      try {
        runtime.TxBegin(TxKind::kHtm);
        fn();
        runtime.TxSuspend();
        // Line 23: the lock can be released already; a new writer can at
        // worst abort our suspended transaction.
        ReleaseWriterLock();
        clocks_.Synchronize();
        runtime.TxResume();
        runtime.TxCommit();
        return;
      } catch (const TxAbortException&) {
        // Blind retry (Algorithm 1 has no fallback). The lock may or may
        // not still be ours depending on where the abort hit.
        ReleaseWriterLockIfHeld();
      }
    }
  }

  void Synchronize() const { clocks_.Synchronize(); }

 private:
  void AcquireWriterLock() {
    std::uint32_t spins = 0;
    for (;;) {
      bool expected = false;
      if (!wlock_.load(std::memory_order_seq_cst) &&
          wlock_.compare_exchange_strong(expected, true, std::memory_order_seq_cst)) {
        // Relaxed: holder_ is advisory (only the holder itself compares it
        // against its own slot); the seq_cst CAS above orders the lock.
        holder_.store(CurrentThreadSlot(), std::memory_order_relaxed);
        return;
      }
      SpinBackoff(spins++);
    }
  }

  void ReleaseWriterLock() {
    // Relaxed: advisory clear; the seq_cst wlock_ store below publishes it.
    holder_.store(kInvalidThreadSlot, std::memory_order_relaxed);
    wlock_.store(false, std::memory_order_seq_cst);
  }

  void ReleaseWriterLockIfHeld() {
    // Relaxed: a thread reads only its own prior holder_ store here, so
    // program order suffices -- no cross-thread synchronization needed.
    if (holder_.load(std::memory_order_relaxed) == CurrentThreadSlot()) {
      ReleaseWriterLock();
    }
  }

  // The writer lock is a plain atomic, not a fabric cell: Algorithm 1
  // writers physically acquire it outside the transaction, so there is no
  // subscription to model.
  std::atomic<bool> wlock_{false};
  // Slot of the current holder; written only under the lock.
  std::atomic<std::uint32_t> holder_{kInvalidThreadSlot};

  EpochClocks clocks_;
};

}  // namespace rwle

#endif  // RWLE_TESTS_RWLE_BASIC_LOCK_H_
