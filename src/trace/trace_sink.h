// The process-wide trace destination. Tracing is on while SetTraceSink has
// installed a MemoryTraceSink, and every emit site -- the HTM runtime, the
// epoch clocks, the locks, the chopping layer, LockAdapter -- goes through
// EmitTraceEvent, which reads that one pointer; no lock, policy or runtime
// object holds a sink of its own. The contract that keeps tracing free when
// off: the pointer is null by default, so the whole hook reduces to one
// relaxed load and a statically predictable branch -- no timestamp read, no
// event construction. The overhead budget (<5% modeled throughput, gated in
// CI by tools/bench_compare.py) is in fact 0% by construction for *modeled*
// time: tracing never calls CostMeter::Charge, it only reads the per-slot
// clocks.
//
// MemoryTraceSink keeps lazily allocated per-thread lock-free rings (see
// trace_ring.h), plus a run table so the Chrome exporter can label each
// benchmark run.
#ifndef RWLE_SRC_TRACE_TRACE_SINK_H_
#define RWLE_SRC_TRACE_TRACE_SINK_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_registry.h"
#include "src/stats/cost_meter.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_ring.h"

namespace rwle {

// Collects events into one ring per thread slot. Lanes are allocated by
// the first event of each slot and live as long as the sink, so a lane
// keeps the newest events of its slot across every run it saw. Run
// labeling (set_scenario / BeginRun) is driver-side and must happen between
// runs, when no worker is emitting.
class MemoryTraceSink {
 public:
  static constexpr std::size_t kDefaultLaneCapacity = std::size_t{1} << 14;

  struct RunInfo {
    std::string scenario;
    std::string scheme;
    double panel_value = 0.0;
    std::uint32_t threads = 0;
  };

  explicit MemoryTraceSink(std::size_t lane_capacity = kDefaultLaneCapacity)
      : lane_capacity_(lane_capacity) {}

  ~MemoryTraceSink() {
    for (auto& lane : lanes_) {
      // Acquire: pairs with Emit()'s release publication so the lane is
      // seen fully constructed before deletion.
      delete lane.load(std::memory_order_acquire);
    }
  }

  MemoryTraceSink(const MemoryTraceSink&) = delete;
  MemoryTraceSink& operator=(const MemoryTraceSink&) = delete;

  // Called by the emitting thread with everything filled in but seq and
  // run_id, which are stamped here. Safe to call concurrently from all
  // registered threads.
  void Emit(const TraceEvent& event) {
    // Relaxed: each lane slot is written only by its owner thread, which
    // reads its own prior store -- program order suffices.
    Lane* lane = lanes_[event.thread_slot].load(std::memory_order_relaxed);
    if (lane == nullptr) {
      lane = new Lane(lane_capacity_);
      // Release: publishes the lane's construction to the cross-thread
      // acquire loads in the readers below.
      lanes_[event.thread_slot].store(lane, std::memory_order_release);
    }
    TraceEvent stamped = event;
    stamped.seq = lane->next_seq++;
    // Relaxed: the run id is changed only between runs while workers are
    // quiesced; an off-by-one-event stamp at a run boundary is harmless.
    stamped.run_id = current_run_.load(std::memory_order_relaxed);
    lane->ring.Push(stamped);
  }

  // Scenario name prefixed to every subsequent run label.
  void set_scenario(std::string scenario) { scenario_ = std::move(scenario); }
  // Starts a new labeled run; events emitted from here on carry its id.
  std::uint32_t BeginRun(const std::string& scheme, double panel_value,
                         std::uint32_t threads) {
    runs_.push_back(RunInfo{scenario_, scheme, panel_value, threads});
    const std::uint32_t id = static_cast<std::uint32_t>(runs_.size() - 1);
    // Relaxed: called between runs while no worker emits; the run start's
    // thread creation/join provides the ordering.
    current_run_.store(id, std::memory_order_relaxed);
    return id;
  }

  const std::vector<RunInfo>& runs() const { return runs_; }

  bool HasLane(std::uint32_t slot) const {
    // Acquire: pairs with Emit()'s release so a non-null lane is usable.
    return lanes_[slot].load(std::memory_order_acquire) != nullptr;
  }

  // Visits the lane's retained events oldest to newest; no-op for slots
  // that never emitted.
  template <typename Fn>
  void ForEachLaneEvent(std::uint32_t slot, Fn&& fn) const {
    // Acquire: pairs with Emit()'s release publication; ring contents are
    // quiesced by contract (readers run between runs).
    if (const Lane* lane = lanes_[slot].load(std::memory_order_acquire)) {
      lane->ring.ForEach(fn);
    }
  }

  std::uint64_t TotalEvents() const {
    std::uint64_t total = 0;
    for (const auto& entry : lanes_) {
      // Acquire: same pairing as ForEachLaneEvent -- see above.
      if (const Lane* lane = entry.load(std::memory_order_acquire)) {
        total += lane->ring.pushed();
      }
    }
    return total;
  }

  std::uint64_t DroppedEvents() const {
    std::uint64_t total = 0;
    for (const auto& entry : lanes_) {
      // Acquire: same pairing as ForEachLaneEvent -- see above.
      if (const Lane* lane = entry.load(std::memory_order_acquire)) {
        total += lane->ring.dropped();
      }
    }
    return total;
  }

 private:
  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    TraceRing ring;
    std::uint32_t next_seq = 0;
  };

  const std::size_t lane_capacity_;
  std::atomic<Lane*> lanes_[kMaxThreads] = {};
  std::atomic<std::uint32_t> current_run_{0};
  std::string scenario_;
  std::vector<RunInfo> runs_;
};

namespace trace_internal {
// The one process-wide sink pointer behind SetTraceSink. Constant-initialised,
// so an emit site that runs before main already sees null.
inline constinit std::atomic<MemoryTraceSink*> process_sink{nullptr};
}  // namespace trace_internal

// Installs `sink` as the destination of every EmitTraceEvent in the
// process; null turns tracing off. Not owned: the sink must stay alive until
// it is replaced. Call only while no thread emits (between runs, workers
// joined).
inline void SetTraceSink(MemoryTraceSink* sink) {
  // Release: publishes the sink's construction to emitters that load the
  // pointer (belt-and-braces; workers start after this call, and thread
  // creation already synchronizes).
  trace_internal::process_sink.store(sink, std::memory_order_release);
}

// The installed sink, or null while tracing is off.
inline MemoryTraceSink* ActiveTraceSink() {
  // Relaxed: the pointer changes only while no thread emits, and workers
  // start after the store, so thread creation provides the happens-before
  // edge.
  return trace_internal::process_sink.load(std::memory_order_relaxed);
}

// Emit variant for callers that already resolved their thread slot (the HTM
// fabric passes TxContext::thread_slot()): identical behavior to the general
// overload below without re-reading the thread-local. `thread_slot` must be
// the calling thread's slot or kInvalidThreadSlot (no-op).
inline void EmitTraceEvent(std::uint32_t thread_slot, TraceEventType type,
                           std::uint8_t detail_a = 0, std::uint8_t detail_b = 0,
                           std::uint64_t arg = 0) {
  MemoryTraceSink* sink = ActiveTraceSink();
  if (sink == nullptr) [[likely]] {
    return;
  }
  if (thread_slot == kInvalidThreadSlot) {
    return;
  }
  TraceEvent event;
  event.timestamp = CostMeter::Global().SlotCycles(thread_slot);
  event.type = type;
  event.thread_slot = static_cast<std::uint16_t>(thread_slot);
  event.detail_a = detail_a;
  event.detail_b = detail_b;
  event.arg = arg;
  sink->Emit(event);
}

// General form: resolves the calling thread's slot only when tracing is on,
// so a null process sink -- the tracing-off fast path and the branch
// predictor's steady state -- costs one load and one branch.
inline void EmitTraceEvent(TraceEventType type, std::uint8_t detail_a = 0,
                           std::uint8_t detail_b = 0, std::uint64_t arg = 0) {
  if (ActiveTraceSink() == nullptr) [[likely]] {
    return;
  }
  EmitTraceEvent(CurrentThreadSlot(), type, detail_a, detail_b, arg);
}

// Installs a sink for the guard's lifetime and turns tracing off again on
// exit, early returns and exceptions included, so the process pointer never
// outlives the sink it names.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(MemoryTraceSink& sink) { SetTraceSink(&sink); }
  ~ScopedTraceSink() { SetTraceSink(nullptr); }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;
};

}  // namespace rwle

#endif  // RWLE_SRC_TRACE_TRACE_SINK_H_
