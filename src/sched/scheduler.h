// The cooperative virtual scheduler. While a round is active it serializes
// all participant threads: exactly one runs at a time, and at every
// scheduling point (see sched_hooks.h) the strategy decides who runs next.
// OS threads still exist -- context switches are condvar handoffs -- but the
// interleaving of fabric/lock/tx events is fully controlled, deterministic,
// and recorded as a ScheduleTrace for replay.
//
// Roles:
//  - The *controller* (usually the exploration loop or the bench harness)
//    brackets a round with BeginRound/EndRound and joins the workers in
//    between. It is not a participant: it runs concurrently with whichever
//    participant is scheduled, which is safe because participants only
//    interact with each other through the instrumented primitives.
//  - Each *participant* wraps its work in a RoundParticipant(tid) RAII scope
//    (logical ids 0..threads-1 assigned by the controller). Construction
//    blocks until all expected participants arrived and this one is
//    scheduled; destruction hands control to the next runnable thread.
//
// Liveness: every spin loop in the repo backs off through SpinBackoff, which
// is itself a scheduling point, so a scheduled thread waiting on a condition
// keeps yielding control until the thread that satisfies it has run. If a
// round still exceeds its step budget (adversarial schedules can spin a
// thread against a condition that is many decisions away), the scheduler
// stops serializing and lets the remaining threads free-run to completion;
// the trace is marked truncated.
#ifndef RWLE_SRC_SCHED_SCHEDULER_H_
#define RWLE_SRC_SCHED_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/sched_hooks.h"
#include "src/sched/schedule_trace.h"
#include "src/sched/strategy.h"

namespace rwle::sched {

class Scheduler {
 public:
  static Scheduler& Global();

  struct RoundOptions {
    std::uint32_t threads = 0;
    // Branch decisions before the round falls back to free-running. The
    // budget counts recorded steps (branch points), not scheduling points.
    std::uint64_t max_steps = 1 << 20;
    // Off for bench rounds: steps are counted but not stored (a benchmark
    // can hit hundreds of millions of scheduling points).
    bool record_trace = true;
  };

  // Installs the scheduling-point hook and opens a round for
  // `options.threads` participants driven by `strategy` (borrowed; must
  // outlive the round). Call strategy->BeginSchedule first. No round may
  // already be active.
  void BeginRound(Strategy* strategy, const RoundOptions& options);

  // Closes the round and uninstalls the hook. All participants must have
  // exited (join the workers first). Returns the recorded trace (steps empty
  // if record_trace was off; `truncated` set if the budget was hit).
  ScheduleTrace EndRound();

  // Participant side; prefer the RoundParticipant RAII wrapper.
  void ThreadStart(std::uint32_t tid);
  void ThreadExit();

  // True while a round is open (between BeginRound and EndRound).
  bool round_active() const;

 private:
  Scheduler() = default;

  struct ParticipantState {
    bool present = false;
    bool exited = false;
  };

  static bool HookTrampoline(sched_hooks::SchedPoint point, const void* addr);
  bool OnSchedPoint(sched_hooks::SchedPoint point, const void* addr);

  // All Locked helpers require mu_.
  std::uint32_t PickNextLocked(sched_hooks::SchedPoint point, std::uint32_t running);
  void EnterFreeRunLocked();

  mutable std::mutex mu_;
  std::condition_variable cv_;

  Strategy* strategy_ = nullptr;
  RoundOptions options_;
  bool round_active_ = false;
  bool free_run_ = false;
  std::uint32_t present_ = 0;
  std::uint32_t live_ = 0;
  std::uint32_t current_ = Strategy::kNoRunner;
  std::uint64_t steps_ = 0;  // recorded branch decisions this round
  std::vector<ParticipantState> participants_;
  ScheduleTrace trace_;
};

// RAII participant scope. No-op (free-running thread) when no round is
// active at construction time, so harness code can wrap workers
// unconditionally.
class RoundParticipant {
 public:
  explicit RoundParticipant(std::uint32_t tid) : active_(Scheduler::Global().round_active()) {
    if (active_) {
      Scheduler::Global().ThreadStart(tid);
    }
  }
  ~RoundParticipant() {
    if (active_) {
      Scheduler::Global().ThreadExit();
    }
  }
  RoundParticipant(const RoundParticipant&) = delete;
  RoundParticipant& operator=(const RoundParticipant&) = delete;

 private:
  bool active_;
};

// Process-wide switch for `rwle_bench --sched`: when on, the
// bench harness runs every benchmark cell's measured region as a scheduled
// round under a seeded random strategy (see bench_harness.cc). Not
// bit-reproducible like rwle_explore litmus rounds -- benchmark threads
// register slots and warm caches outside the round -- but a controlled-stress
// mode that surfaces schedule-dependent bugs under the full workloads.
void EnableScheduledRuns(std::uint64_t seed);
void DisableScheduledRuns();
bool ScheduledRunsEnabled();
std::uint64_t ScheduledRunsSeed();

}  // namespace rwle::sched

#endif  // RWLE_SRC_SCHED_SCHEDULER_H_
