// Classic hardware lock elision (Rajwar & Goodman [27]), the paper's main
// baseline: every critical section -- read or write alike, HLE is blind to
// read-write semantics -- runs as a hardware transaction that eagerly
// subscribes to the lock; after `max_retries` failed attempts (or one
// persistent failure) it falls back to physically acquiring the lock, which
// dooms all concurrent fast-path transactions and serializes everyone.
#ifndef RWLE_SRC_LOCKS_HLE_LOCK_H_
#define RWLE_SRC_LOCKS_HLE_LOCK_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/rwle/lock_word.h"
#include "src/rwle/path_policy.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"
#include "src/trace/trace_sink.h"

namespace rwle {

class HleLock {
 public:
  explicit HleLock(std::uint32_t max_retries = 5) : max_retries_(max_retries) {}

  HleLock(const HleLock&) = delete;
  HleLock& operator=(const HleLock&) = delete;

  template <typename Fn>
  void Read(Fn&& fn) {
    Execute(fn);
  }

  template <typename Fn>
  void Write(Fn&& fn) {
    Execute(fn);
  }

  StatsRegistry& stats() { return stats_; }

 private:
  template <typename Fn>
  void Execute(Fn&& fn) {
    RWLE_CHECK(CurrentThreadSlot() != kInvalidThreadSlot);
    HtmRuntime& runtime = HtmRuntime::Global();

    for (std::uint32_t attempt = 0; attempt < max_retries_; ++attempt) {
      try {
        if (runtime.config().subscription == SubscriptionPolicy::kEager) {
          // Wait for any serial-path holder before speculating. Lazy
          // subscription skips this too: its defining property is that the
          // lock is not examined -- and so cannot be waited on -- until
          // commit time.
          std::uint32_t spins = 0;
          while (lock_.State() != LockState::kFree) {
            SpinBackoff(spins++);
          }
        }
        runtime.TxBegin(TxKind::kHtm);
        if (runtime.config().subscription == SubscriptionPolicy::kEager) {
          // Eager subscription: the transactional load puts the lock word
          // in the read set, so a later serial acquisition dooms us before
          // we can observe the holder's partial writes.
          if (lock_.State() != LockState::kFree) {
            runtime.TxAbort(AbortCause::kExplicit);  // throws
          }
        }
        fn();
        if (runtime.config().subscription == SubscriptionPolicy::kLazy) {
          // Lazy subscription: the first (and only) look at the lock is
          // just before commit. Cheaper when the lock is rarely held, but
          // unsafe without hardware support (Dice et al.): fn() above may
          // already have run as a zombie over a serial holder's torn state.
          // The lazy-sub litmus demonstrates exactly that (PORTABILITY.md).
          if (lock_.State() != LockState::kFree) {
            runtime.TxAbort(AbortCause::kExplicit);  // throws
          }
        }
        runtime.TxCommit();
        stats_.RecordCommit(CommitPath::kHtm);
        return;
      } catch (const TxAbortException& abort) {
        stats_.RecordAbort(abort.kind(), abort.cause());
        if (abort.persistent()) {
          break;  // retrying cannot help; go serial
        }
      } catch (...) {
        runtime.TxCancel();
        throw;
      }
    }

    // Serial fallback: acquire the lock for real. The acquisition dooms all
    // in-flight fast-path transactions (they subscribed to the lock).
    EmitTraceEvent(TraceEventType::kPathTransition,
                   static_cast<std::uint8_t>(WritePath::kHtm),
                   static_cast<std::uint8_t>(WritePath::kNs));
    const std::uint64_t held = lock_.Acquire(LockState::kNsLocked);
    {
      SerialSectionScope serial_scope(SerialScope::kGlobal);
      try {
        fn();
      } catch (...) {
        lock_.Release(held);
        throw;
      }
    }
    lock_.Release(held);
    stats_.RecordCommit(CommitPath::kSerial);
  }

  LockWord lock_;
  std::uint32_t max_retries_;
  StatsRegistry stats_;
};

}  // namespace rwle

#endif  // RWLE_SRC_LOCKS_HLE_LOCK_H_
