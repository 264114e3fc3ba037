// RW-LE: hardware read-write lock elision (paper, Algorithm 2).
//
// Readers run *uninstrumented*: no transaction, no read-set tracking -- just
// an epoch clock increment on entry/exit. Writers run speculatively (HTM
// first, then ROT, then the non-speculative lock, per the PATH policy) and,
// before committing, wait for all in-flight readers to drain (RCU-style
// quiescence) so no reader observes a mix of pre- and post-commit state:
//   - HTM path: suspend the transaction, synchronize, resume, commit.
//   - ROT path: synchronize (ROT loads are untracked), commit; ROT writers
//     are serialized via the global lock but run concurrently with readers.
//   - NS path: acquire the lock (blocking readers), synchronize once, run
//     pessimistically.
// New readers that race with a writer's commit are safe because their loads
// of a speculatively-written line doom the writer through the coherence
// fabric (paper Figure 2).
//
// Variants: kOpt (HTM->ROT->NS), kPes (ROT->NS, writers serialized), kFair
// (version-based fairness so writers cannot starve readers, §3.3).
//
// Critical sections are closures (see DESIGN.md §1); shared state inside
// them must be accessed through TxVar.
#ifndef RWLE_SRC_RWLE_RWLE_LOCK_H_
#define RWLE_SRC_RWLE_RWLE_LOCK_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/preemption.h"
#include "src/rwle/bravo_reader_table.h"
#include "src/rwle/epoch_clocks.h"
#include "src/rwle/lock_word.h"
#include "src/rwle/path_policy.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"

namespace rwle {

class ChoppedSection;

class RwLeLock {
 public:
  explicit RwLeLock(const RwLePolicy& policy = RwLePolicy{});

  RwLeLock(const RwLeLock&) = delete;
  RwLeLock& operator=(const RwLeLock&) = delete;

  // Executes `fn` as a read critical section. The calling thread must hold
  // a ScopedThreadSlot. `fn` sees a consistent snapshot and never blocks on
  // speculative writers (only on non-speculative ones). Read sections nest
  // freely (paper §3.1 footnote 3) and may appear inside a Write section
  // (subsumed by it); taking Write inside Read is a lock upgrade and is
  // rejected, as with plain read-write locks.
  template <typename Fn>
  void Read(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    Nesting& nesting = nesting_[slot];
    if (nesting.write_depth > 0 || nesting.read_depth > 0) {
      // Nested: the outer critical section already provides the guarantees.
      ++nesting.read_depth;
      try {
        fn();
      } catch (...) {
        --nesting.read_depth;
        throw;
      }
      --nesting.read_depth;
      stats_.RecordCommit(CommitPath::kUninstrumentedRead);
      return;
    }
    // Read sections complete without being parked mid-section by the
    // preemption model; the deferred yield is delivered only after the
    // epoch clock goes even again (see src/htm/preemption.h).
    const PreemptionDeferScope defer;
    if (policy_.variant == RwLeVariant::kFair) {
      ReadEnterFair(slot);
    } else {
      ReadEnter(slot);
    }
    nesting.read_depth = 1;
    try {
      fn();
    } catch (...) {
      nesting.read_depth = 0;
      clocks_.Exit(slot);
      ReadExitFallback(slot);
      throw;
    }
    nesting.read_depth = 0;
    clocks_.Exit(slot);
    ReadExitFallback(slot);
    stats_.RecordCommit(CommitPath::kUninstrumentedRead);
  }

  // Executes `fn` as a write critical section, retrying across the HTM /
  // ROT / NS paths per the policy. `fn` may run multiple times (aborted
  // attempts have no visible effect); it must confine shared-state access
  // to TxVar cells and must tolerate re-execution.
  template <typename Fn>
  void Write(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    Nesting& nesting = nesting_[slot];
    RWLE_CHECK(nesting.read_depth == 0 &&
               "lock upgrade (Write inside Read) is not supported");
    if (nesting.write_depth > 0) {
      // Flattened nesting: the outer write section already holds the lock
      // (or speculates); just run the body as part of it.
      ++nesting.write_depth;
      try {
        fn();
      } catch (...) {
        --nesting.write_depth;
        throw;
      }
      --nesting.write_depth;
      return;
    }
    const NestingScope write_scope(&nesting.write_depth);
    HtmRuntime& runtime = HtmRuntime::Global();
    // Analysis builds: bracket the (outermost) elided write section so txsan
    // can require a quiescence scan before any commit inside it.
    const AnalysisElidedWriteScope txsan_scope(runtime, slot);
    PathPolicy path(policy_);
    for (;;) {
      switch (path.current()) {
        case WritePath::kHtm: {
          try {
            HtmPrologue();
            RunSpeculative(fn);
            HtmEpilogue();
            stats_.RecordCommit(CommitPath::kHtm);
            return;
          } catch (const TxAbortException& abort) {
            stats_.RecordAbort(abort.kind(), abort.cause());
            const WritePath before = path.current();
            path.OnAbort(abort.persistent());
            EmitPathTransition(before, path.current());
          }
          break;
        }
        case WritePath::kRot: {
          const std::uint64_t held = AcquireRotPath();
          // ROT writers are serialized with each other but run concurrently
          // with readers: writer-serial bucket in the cost model.
          SerialSectionScope rot_scope(SerialScope::kWriters);
          try {
            runtime.TxBegin(TxKind::kRot);
            RunSpeculative(fn);
            RotEpilogue();
            ReleaseRotPath(held);
            stats_.RecordCommit(CommitPath::kRot);
            return;
          } catch (const TxAbortException& abort) {
            ReleaseRotPath(held);
            stats_.RecordAbort(abort.kind(), abort.cause());
            const WritePath before = path.current();
            path.OnAbort(abort.persistent());
            EmitPathTransition(before, path.current());
          }
          break;
        }
        case WritePath::kNs: {
          const std::uint64_t held = AcquireNsPath();
          SerialSectionScope ns_scope(SerialScope::kGlobal);
          // Reader visibility is queried through the fallback abstraction:
          // a BRAVO fallback first drains the distributed table (readers it
          // admitted through private entries), then the epoch scan below
          // dooms/waits out the uninstrumented readers as always.
          if (policy_.fallback == FallbackScheme::kBravo) {
            BravoDrainAdmitted(slot);
          }
          SynchronizeNs(held);
          try {
            fn();
          } catch (...) {
            ReleaseNsPath(held);
            throw;  // NS sections cannot abort; this is a user exception
          }
          ReleaseNsPath(held);
          stats_.RecordCommit(CommitPath::kSerial);
          return;
        }
      }
    }
  }

  const RwLePolicy& policy() const { return policy_; }
  StatsRegistry& stats() { return stats_; }
  EpochClocks& clocks() { return clocks_; }

  // Exposed for tests: the RCU-like quiescence barrier.
  void Synchronize() const { clocks_.Synchronize(); }

 private:
  // The chopping layer (src/chop/) drives the write word and the NS-path
  // machinery directly: a chain holds wlock_ as its chain token and reuses
  // the quiescence / fallback plumbing for its publication window.
  friend class ChoppedSection;

  // Runs the user body inside the current transaction, converting foreign
  // exceptions into a clean transaction cancellation.
  template <typename Fn>
  void RunSpeculative(Fn&& fn) {
    try {
      fn();
    } catch (const TxAbortException&) {
      throw;
    } catch (...) {
      HtmRuntime::Global().TxCancel();
      throw;
    }
  }

  void EmitPathTransition(WritePath from, WritePath to) {
    if (from != to) {
      EmitTraceEvent(TraceEventType::kPathTransition,
                     static_cast<std::uint8_t>(from), static_cast<std::uint8_t>(to));
    }
  }

  void ReadEnter(std::uint32_t slot);
  void ReadEnterFair(std::uint32_t slot);

  // BRAVO fallback (policy_.fallback == kBravo): a reader that collides
  // with the NS lock parks in its private fallback_table_ entry instead of
  // spinning on (and later stampeding) the centralized lock word. The NS
  // writer grants parked entries after release and drains admitted readers
  // on acquire. See rwle_lock.cc for the parking protocol.
  void BravoReaderWait(std::uint32_t slot);
  void BravoReaderExit(std::uint32_t slot);
  void BravoDrainAdmitted(std::uint32_t slot);
  void BravoGrantParked();

  // Read-section exit through the fallback abstraction: withdraws the
  // thread's visible-reader entry, if it holds one. No-op for the
  // centralized fallback (readers there are visible via epoch clocks only).
  void ReadExitFallback(std::uint32_t slot) {
    if (policy_.fallback == FallbackScheme::kBravo) {
      BravoReaderExit(slot);
    }
  }

  // NS-path release through the fallback abstraction: drops the lock, then
  // (BRAVO) sweeps the table to wake parked readers through their private
  // entries -- the centralized fallback instead wakes them by the released
  // lock word itself, at stampede cost (see ReadEnter).
  void ReleaseNsPath(std::uint64_t held_word) {
    wlock_.Release(held_word);
    if (policy_.fallback == FallbackScheme::kBravo) {
      BravoGrantParked();
    }
  }

  // ROT-path lock management: the single global lock in the base design,
  // or the dedicated ROT lock in split-lock mode (§3.3). Returns the held
  // word to pass to ReleaseRotPath.
  std::uint64_t AcquireRotPath();
  void ReleaseRotPath(std::uint64_t held_word);

  // NS-path acquisition; in split-lock mode this also drains any in-flight
  // ROT writer (new ROTs back off while the NS lock is held).
  std::uint64_t AcquireNsPath();

  // HTM write path: wait for the lock to be free, begin, eagerly subscribe.
  void HtmPrologue();
  // HTM commit: suspend, quiesce readers, resume, (lazily subscribe the
  // ROT lock in split mode,) commit.
  void HtmEpilogue();
  // ROT commit: quiesce readers, commit (no suspend needed: ROT loads are
  // untracked, so reading the clocks cannot conflict).
  void RotEpilogue();
  // NS-path quiescence: blocked-reader single scan, or the version-filtered
  // wait of the FAIR variant.
  void SynchronizeNs(std::uint64_t held_word);

  // Per-thread critical-section nesting (touched only by the owning
  // thread).
  struct alignas(kCacheLineBytes) Nesting {
    std::uint32_t read_depth = 0;
    std::uint32_t write_depth = 0;
  };

  class NestingScope {
   public:
    explicit NestingScope(std::uint32_t* depth) : depth_(depth) { ++*depth_; }
    ~NestingScope() { --*depth_; }
    NestingScope(const NestingScope&) = delete;
    NestingScope& operator=(const NestingScope&) = delete;

   private:
    std::uint32_t* depth_;
  };

  RwLePolicy policy_;
  LockWord wlock_;
  // Split-lock mode only: serializes ROT writers, leaving wlock_ to the NS
  // path. Hardware transactions subscribe to it lazily at commit.
  LockWord rot_lock_;
  // BRAVO fallback only: distributed parking table for readers blocked by
  // an NS writer. Untouched (8 KiB of cold zeros) under kCentralized.
  BravoReaderTable fallback_table_;
  EpochClocks clocks_;
  StatsRegistry stats_;
  Nesting nesting_[kMaxThreads];

  // FAIR variant: each reader's copy of the lock word taken on entry.
  struct alignas(kCacheLineBytes) LocalLock {
    std::atomic<std::uint64_t> word{0};
  };
  LocalLock local_locks_[kMaxThreads];
};

}  // namespace rwle

#endif  // RWLE_SRC_RWLE_RWLE_LOCK_H_
