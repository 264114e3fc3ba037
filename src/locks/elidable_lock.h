// Uniform closure-based read-write lock interface used by the benchmark
// harness and the workloads, so every synchronization scheme from the
// paper's evaluation (RW-LE variants, HLE, BRLock, RWL, SGL) is
// interchangeable. Concrete locks expose templated Read/Write for zero-cost
// direct use; LockAdapter bridges them into this interface.
//
// The adapter also owns the per-operation observability: it times every
// Read/Write in modeled cycles, attributes the operation to the commit path
// it took (by diffing the calling thread's commit counters around the call),
// and records the latency into its LatencyRegistry -- that is where the
// p50/p99 blocks in the JSON results come from. While tracing is on, each
// operation also emits one kOpEnd event to the process sink.
#ifndef RWLE_SRC_LOCKS_ELIDABLE_LOCK_H_
#define RWLE_SRC_LOCKS_ELIDABLE_LOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/function_ref.h"
#include "src/common/thread_registry.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"
#include "src/trace/latency_registry.h"
#include "src/trace/trace_sink.h"

namespace rwle {

class ElidableLock {
 public:
  virtual ~ElidableLock() = default;

  virtual void Read(FunctionRef fn) = 0;
  virtual void Write(FunctionRef fn) = 0;
  virtual StatsRegistry& stats() = 0;
  // The scheme name this lock was constructed under (e.g. "rwle-opt");
  // benchmark records use it to label rows without threading strings
  // alongside every lock.
  virtual std::string_view name() const = 0;
  // Modeled per-operation latencies recorded around every Read/Write call.
  virtual LatencyRegistry& latency() = 0;
};

template <typename Lock>
class LockAdapter final : public ElidableLock {
 public:
  template <typename... Args>
  explicit LockAdapter(std::string_view name, Args&&... args)
      : name_(name), lock_(std::forward<Args>(args)...) {}

  void Read(FunctionRef fn) override { RunTimed(OpKind::kRead, fn); }
  void Write(FunctionRef fn) override { RunTimed(OpKind::kWrite, fn); }
  StatsRegistry& stats() override { return lock_.stats(); }
  std::string_view name() const override { return name_; }
  LatencyRegistry& latency() override { return latency_; }

  Lock& lock() { return lock_; }

 private:
  void RunTimed(OpKind op, FunctionRef fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    if (slot == kInvalidThreadSlot) {
      Dispatch(op, fn);
      return;
    }
    const ThreadStats& local = lock_.stats().Local();
    std::uint64_t before[kCommitPathCount];
    for (int i = 0; i < kCommitPathCount; ++i) {
      before[i] = local.commits[i];
    }
    const CostMeter& meter = CostMeter::Global();
    const std::uint64_t start = meter.SlotCycles(slot);
    Dispatch(op, fn);
    const std::uint64_t cycles = meter.SlotCycles(slot) - start;
    CommitPath path;
    if (!FindCommitPath(op, before, local.commits, &path)) {
      return;  // nested section: the outer operation accounts for it
    }
    latency_.Record(slot, op, path, cycles);
    EmitTraceEvent(TraceEventType::kOpEnd, static_cast<std::uint8_t>(op),
                   static_cast<std::uint8_t>(path), cycles);
  }

  void Dispatch(OpKind op, FunctionRef fn) {
    if (op == OpKind::kRead) {
      lock_.Read(fn);
    } else {
      lock_.Write(fn);
    }
  }

  // Which commit counter did this operation bump? Checked in the order the
  // op kind makes likeliest, so an operation that bumped two counters (an
  // HLE "read" that committed in HTM while a nested section recorded an
  // uninstrumented read, say) attributes to the plausible one.
  static bool FindCommitPath(OpKind op, const std::uint64_t (&before)[kCommitPathCount],
                             const std::uint64_t (&after)[kCommitPathCount],
                             CommitPath* path) {
    static constexpr int kReadOrder[kCommitPathCount] = {3, 0, 1, 2};
    static constexpr int kWriteOrder[kCommitPathCount] = {0, 1, 2, 3};
    const int* order = op == OpKind::kRead ? kReadOrder : kWriteOrder;
    for (int i = 0; i < kCommitPathCount; ++i) {
      if (after[order[i]] != before[order[i]]) {
        *path = static_cast<CommitPath>(order[i]);
        return true;
      }
    }
    return false;
  }

  std::string name_;
  Lock lock_;
  LatencyRegistry latency_;
};

}  // namespace rwle

#endif  // RWLE_SRC_LOCKS_ELIDABLE_LOCK_H_
