// Per-thread epoch clocks and the RCU-like quiescence barrier
// (paper, Algorithm 1: clocks[], RWLE_SYNCHRONIZE).
//
// A thread's clock is odd while it is inside a read critical section. A
// writer that must not overrun in-flight readers snapshots all clocks and
// waits for every odd one to change. Clocks are plain atomics, NOT fabric
// cells: the writer reads them while its transaction is suspended (or from
// a ROT, which does not track loads), so reader increments never conflict
// with the writer's speculation -- the same escape-action property the
// paper gets from POWER8 suspend/resume.
#ifndef RWLE_SRC_RWLE_EPOCH_CLOCKS_H_
#define RWLE_SRC_RWLE_EPOCH_CLOCKS_H_

#include <atomic>
#include <cstdint>

#include "src/common/cpu.h"
#include "src/common/sched_hooks.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/stats/cost_meter.h"
#include "src/trace/trace_sink.h"

namespace rwle {

class EpochClocks {
 public:
  // Enter/exit a read critical section. seq_cst gives the MEM_FENCE of
  // Algorithm 1 line 13: writers are guaranteed to see the reader before
  // the reader's first data access.
  //
  // Analysis hook placement is deliberately asymmetric so txsan's view of
  // the read window is a subset of the real window (enter notified after
  // the clock goes odd, exit notified before it goes even): the quiescence
  // drain check then never reports a false positive.
  void Enter(std::uint32_t thread_slot) {
    RWLE_SCHED_POINT(kReaderEnter, this);
    CostMeter::Global().Charge(CostModel::kAccess);  // per-thread line: uncontended
    clocks_[thread_slot].value.fetch_add(1, std::memory_order_seq_cst);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderEnter(thread_slot, this));
  }

  void Exit(std::uint32_t thread_slot) {
    RWLE_SCHED_POINT(kReaderExit, this);
    CostMeter::Global().Charge(CostModel::kAccess);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderExit(thread_slot, this));
    clocks_[thread_slot].value.fetch_add(1, std::memory_order_seq_cst);
  }

  std::uint64_t Value(std::uint32_t thread_slot) const {
    return clocks_[thread_slot].value.load(std::memory_order_seq_cst);
  }

  static bool IsInCriticalSection(std::uint64_t clock) { return (clock & 1) != 0; }

  // RWLE_SYNCHRONIZE (Algorithm 1 lines 6-10): snapshot all clocks, then
  // wait for every odd one to move past the snapshot. New readers may keep
  // entering; conflicts with them are caught by the HTM fabric instead.
  void Synchronize() const {
    RWLE_SCHED_POINT(kQuiescence, this);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceBegin(CurrentThreadSlot(), this));
    EmitTraceEvent(TraceEventType::kQuiesceBegin);
    const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
    CostMeter::Global().Charge(2 * CostModel::kClockScanPerThread * n);
    std::uint64_t snapshot[kMaxThreads];
    for (std::uint32_t i = 0; i < n; ++i) {
      snapshot[i] = Value(i);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!IsInCriticalSection(snapshot[i])) {
        continue;
      }
      std::uint32_t spins = 0;
      while (Value(i) == snapshot[i]) {
        SpinBackoff(spins++);
      }
    }
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceEnd(CurrentThreadSlot(), this));
    EmitTraceEvent(TraceEventType::kQuiesceEnd);
  }

  // Single-traversal variant (paper §3.3, first optimization): valid only
  // when new readers are blocked (the caller holds the lock in NS mode), so
  // an odd clock can only transition to "out of critical section".
  void SynchronizeBlockedReaders() const {
    RWLE_SCHED_POINT(kQuiescence, this);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceBegin(CurrentThreadSlot(), this));
    EmitTraceEvent(TraceEventType::kQuiesceBegin, /*detail_a=*/1);  // single-scan variant
    const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
    CostMeter::Global().Charge(CostModel::kClockScanPerThread * n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t observed = Value(i);
      if (!IsInCriticalSection(observed)) {
        continue;
      }
      std::uint32_t spins = 0;
      while (Value(i) == observed) {
        SpinBackoff(spins++);
      }
    }
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceEnd(CurrentThreadSlot(), this));
    EmitTraceEvent(TraceEventType::kQuiesceEnd, /*detail_a=*/1);
  }

 private:
  struct alignas(kCacheLineBytes) Clock {
    std::atomic<std::uint64_t> value{0};
  };

  Clock clocks_[kMaxThreads];
};

}  // namespace rwle

#endif  // RWLE_SRC_RWLE_EPOCH_CLOCKS_H_
