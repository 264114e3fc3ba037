// BRAVO-biased reader-writer lock (Dice & Kogan, "BRAVO -- Biased Locking
// for Reader-Writer Locks"; scheme name "bravo"). Wraps a centralized
// counter rw-lock (the underlay, same protocol as src/locks/rw_lock.h) with
// a reader bias:
//   - bias on: a reader publishes itself in the distributed visible-reader
//     table (one slot-hashed entry), rechecks the bias, and runs without
//     ever touching the centralized word -- the contended RMW that caps
//     RWL's read scaling simply never happens.
//   - bias off / table entry taken: the reader falls back to the underlay's
//     shared mode, and re-arms the bias once the inhibit window has passed.
//   - writer: acquires the underlay exclusively; if the bias is on it
//     *revokes* -- clears the bias first, then scans the table and waits for
//     every occupied entry to drain. Clear-then-scan vs publish-then-recheck
//     (both seq_cst) is the classic BRAVO argument: a reader whose recheck
//     still saw the bias on published before the clear in the seq_cst
//     order, so the scan cannot miss it.
//   - inhibit-until: revocation costs a full table scan, so after paying it
//     the writer forbids re-arming for inhibit_multiplier x (measured
//     revocation cost) cycles -- write-heavy phases degrade to plain RWL
//     instead of thrashing the bias (BRAVO's N parameter, default 9).
//
// Reader visibility of writer data: the bias is only ever armed by a slow
// reader *while it holds the underlay shared* (so it synchronized with the
// last writer's release), and every writer clears the bias. A fast reader's
// seq_cst bias recheck therefore reads an arm that happens-after the last
// writer, and transitively sees its writes without touching the underlay.
//
// Timestamps are modeled cycles (CostMeter::SlotCycles). The inhibit
// comparison mixes the revoking writer's slot clock with the re-arming
// reader's -- per-slot clocks advance independently, so the window is an
// approximation of global time; it only throttles a heuristic, never
// correctness.
//
// Same usage constraints as RwLock: sections are closures, no lock
// upgrades, reentrant acquisition of the same mode only by luck of the
// underlay (don't).
#ifndef RWLE_SRC_LOCKS_BRAVO_LOCK_H_
#define RWLE_SRC_LOCKS_BRAVO_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/common/thread_registry.h"
#include "src/htm/fabric_observer.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/preemption.h"
#include "src/rwle/bravo_reader_table.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"
#include "src/trace/trace_sink.h"

namespace rwle {

class BravoLock {
 public:
  struct Options {
    // Re-arm throttle: after a revocation that cost C modeled cycles, slow
    // readers may not re-arm the bias for inhibit_multiplier * C cycles.
    // 0 = re-arm immediately (the bravo_revoke micro-benchmark's setting).
    std::uint64_t inhibit_multiplier = 9;
    // Start with the bias armed? Read-mostly deployments (and the litmus
    // workloads, which need the revocation path on the first write) say yes.
    bool bias_initially = true;
  };

  BravoLock() : BravoLock(Options()) {}
  explicit BravoLock(const Options& options)
      : options_(options), bias_(options.bias_initially) {}
  BravoLock(const BravoLock&) = delete;
  BravoLock& operator=(const BravoLock&) = delete;

  template <typename Fn>
  void Read(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    const PreemptionDeferScope defer;  // yield only after the section ends
    const std::uint32_t index = BravoReaderTable::IndexFor(slot);
    const bool fast = FastReadEnter(slot, index);
    if (!fast) {
      SlowReadEnter(slot);
    }
    try {
      fn();
    } catch (...) {
      ReadExit(fast, slot, index);
      throw;
    }
    ReadExit(fast, slot, index);
    stats_.RecordCommit(CommitPath::kUninstrumentedRead);
  }

  template <typename Fn>
  void Write(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    AcquireExclusive();
    SerialSectionScope serial_scope(SerialScope::kGlobal);
    if (bias_.load()) {
      Revoke(slot);
    }
    try {
      fn();
    } catch (...) {
      ReleaseExclusive();
      throw;
    }
    ReleaseExclusive();
    stats_.RecordCommit(CommitPath::kSerial);
  }

  StatsRegistry& stats() { return stats_; }

  // Test hooks.
  bool bias_armed() const { return bias_.load(); }
  const BravoReaderTable& table() const { return table_; }

 private:
  // Publish-then-recheck fast path. True = admitted as a table reader.
  bool FastReadEnter(std::uint32_t slot, std::uint32_t index) {
    if (!bias_.load()) {
      return false;
    }
    if (!table_.TryClaim(index, slot, BravoReaderTable::kActive)) {
      // Slot-hash alias: a neighbor owns our entry. Degrade to the underlay.
      stats_.RecordBravo(BravoCounter::kAliasedPark);
      return false;
    }
    if (!bias_.load()) {
      // Raced a revocation; the writer's scan may already be waiting on our
      // entry, so withdraw and queue up on the underlay like everyone else.
      table_.Withdraw(index);
      return false;
    }
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderEnter(slot, &table_));
    stats_.RecordBravo(BravoCounter::kFastRead);
    return true;
  }

  void SlowReadEnter(std::uint32_t slot) {
    AcquireShared();
    stats_.RecordBravo(BravoCounter::kSlowRead);
    // Holding the underlay shared: no writer is active, so arming here
    // cannot strand one mid-section without a revocation.
    // Relaxed: the inhibit timestamp is a heuristic throttle, not data
    // publication; stale reads only delay or hasten a re-arm.
    if (!bias_.load() && CostMeter::Global().SlotCycles(slot) >=
                             inhibit_until_.load(std::memory_order_relaxed)) {
      bias_.store(true);
      stats_.RecordBravo(BravoCounter::kBiasArm);
      EmitTraceEvent(slot, TraceEventType::kBravoBiasArm);
    }
  }

  void ReadExit(bool fast, std::uint32_t slot, std::uint32_t index) {
    (void)slot;  // only the analysis hook consumes it
    if (fast) {
      // Hook before the withdraw: txsan must see the section closed no
      // later than the revoking writer can observe the entry empty.
      RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderExit(slot, &table_));
      table_.Withdraw(index);
    } else {
      ReleaseShared();
    }
  }

  // Bias revocation: runs with the underlay held exclusively.
  void Revoke(std::uint32_t slot) {
    EmitTraceEvent(slot, TraceEventType::kBravoRevokeBegin);
    const std::uint64_t start_cycles = CostMeter::Global().SlotCycles(slot);
    // Clear first, then scan (see the file comment's ordering argument).
    bias_.store(false);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceBegin(slot, &table_));
    CostMeter::Global().Charge(BravoReaderTable::ScanCharge());
    std::uint64_t drained = 0;
    for (std::uint32_t i = 0; i < BravoReaderTable::kSlots; ++i) {
      bool counted = false;
      std::uint32_t spins = 0;
      for (;;) {
        RWLE_SCHED_POINT(kLockAcquire, &table_.Word(i));
        // Acquire: pairs with the reader's releasing withdraw, so its
        // section loads complete before this writer's section stores.
        if (table_.Word(i).load(std::memory_order_acquire) ==
            BravoReaderTable::kEmpty) {
          break;
        }
        if (!counted) {
          counted = true;
          ++drained;
        }
        SpinBackoff(spins++);
      }
    }
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceEnd(slot, &table_));
    const std::uint64_t cost = CostMeter::Global().SlotCycles(slot) - start_cycles;
    // Relaxed: heuristic throttle (see SlowReadEnter).
    inhibit_until_.store(
        CostMeter::Global().SlotCycles(slot) + options_.inhibit_multiplier * cost,
        std::memory_order_relaxed);
    stats_.RecordBravo(BravoCounter::kRevocation);
    stats_.RecordBravo(BravoCounter::kRevokedReader, drained);
    EmitTraceEvent(slot, TraceEventType::kBravoRevokeEnd, 0, 0, drained);
  }

  // --- Centralized underlay: the counter rw-lock protocol of
  // src/locks/rw_lock.h (writer preference), private to this scheme so the
  // comparison grids keep measuring plain "rwl" unchanged. ---
  static constexpr std::uint64_t kReaderOne = 1;
  static constexpr std::uint64_t kReaderMask = 0xFFFFFFFFull;
  static constexpr std::uint64_t kWriterActive = 1ull << 32;
  static constexpr std::uint64_t kWriterWaitingOne = 1ull << 40;

  void AcquireShared() {
    std::uint32_t spins = 0;
    for (;;) {
      RWLE_SCHED_POINT(kLockAcquire, &state_);
      // Relaxed: optimistic snapshot only; the acquiring CAS re-validates.
      const std::uint64_t state = state_.load(std::memory_order_relaxed);
      if ((state & kWriterActive) == 0 && state < kWriterWaitingOne) {
        std::uint64_t expected = state;
        // Acquire: pairs with ReleaseExclusive()'s release so this section
        // sees every write of the previous writer.
        if (state_.compare_exchange_weak(expected, state + kReaderOne,
                                         std::memory_order_acquire)) {
          // Centralized counter: the RMW bounces the line across all
          // participating caches -- the cost BRAVO's fast path avoids.
          CostMeter::Global().ChargeContended(CostModel::kLockOp);
          return;
        }
      }
      SpinBackoff(spins++);
    }
  }

  void ReleaseShared() {
    CostMeter::Global().ChargeContended(CostModel::kLockOp);
    // Release: the reader's loads happen-before a writer that observes the
    // counter hit zero via its acquiring CAS.
    state_.fetch_sub(kReaderOne, std::memory_order_release);
  }

  void AcquireExclusive() {
    // Relaxed: registering intent only -- readers test the waiting bits for
    // writer preference, no data is published by this increment.
    state_.fetch_add(kWriterWaitingOne, std::memory_order_relaxed);
    std::uint32_t spins = 0;
    for (;;) {
      RWLE_SCHED_POINT(kLockAcquire, &state_);
      // Relaxed: optimistic snapshot; the acquiring CAS re-validates it.
      const std::uint64_t state = state_.load(std::memory_order_relaxed);
      if ((state & (kReaderMask | kWriterActive)) == 0) {
        std::uint64_t expected = state;
        // Acquire: pairs with the releases of departing readers/writers so
        // the exclusive section sees all their writes.
        if (state_.compare_exchange_weak(
                expected, state - kWriterWaitingOne + kWriterActive,
                std::memory_order_acquire)) {
          CostMeter::Global().ChargeContended(CostModel::kLockOp);
          return;
        }
      }
      SpinBackoff(spins++);
    }
  }

  void ReleaseExclusive() {
    RWLE_SCHED_POINT(kLockRelease, &state_);
    CostMeter::Global().ChargeContended(CostModel::kLockOp);
    // Release: publishes the writer's section to the next acquiring CAS.
    state_.fetch_sub(kWriterActive, std::memory_order_release);
  }

  const Options options_;
  std::atomic<bool> bias_;
  // Modeled-cycle timestamp before which SlowReadEnter must not re-arm.
  std::atomic<std::uint64_t> inhibit_until_{0};
  std::atomic<std::uint64_t> state_{0};
  BravoReaderTable table_;
  StatsRegistry stats_;
};

}  // namespace rwle

#endif  // RWLE_SRC_LOCKS_BRAVO_LOCK_H_
