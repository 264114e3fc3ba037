#include "src/sched/scheduler.h"

#include <algorithm>
#include <atomic>

#include "src/common/check.h"

namespace rwle::sched {
namespace {

// Logical participant id of the calling thread, or -1 for non-participants
// (the controller, threads spawned outside a round). Set by ThreadStart.
thread_local std::int32_t tls_tid = -1;

}  // namespace

Scheduler& Scheduler::Global() {
  static Scheduler instance;
  return instance;
}

bool Scheduler::round_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return round_active_;
}

void Scheduler::BeginRound(Strategy* strategy, const RoundOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  RWLE_CHECK(!round_active_);
  RWLE_CHECK(strategy != nullptr);
  RWLE_CHECK(options.threads >= 1);
  strategy_ = strategy;
  options_ = options;
  round_active_ = true;
  free_run_ = false;
  present_ = 0;
  live_ = 0;
  current_ = Strategy::kNoRunner;
  steps_ = 0;
  participants_.assign(options.threads, ParticipantState{});
  trace_ = ScheduleTrace{};
  trace_.threads = options.threads;
  trace_.strategy = strategy->name();
  // Release: publishes the round state initialized above to workers whose
  // acquire load of the hook pointer observes it.
  sched_hooks::on_sched_point.store(&Scheduler::HookTrampoline, std::memory_order_release);
}

ScheduleTrace Scheduler::EndRound() {
  std::lock_guard<std::mutex> lock(mu_);
  RWLE_CHECK(round_active_);
  RWLE_CHECK(live_ == 0);  // controller must join the workers first
  // Release: orders the round teardown after the hook disappears for any
  // late acquire reader (workers are already joined per the check above).
  sched_hooks::on_sched_point.store(nullptr, std::memory_order_release);
  round_active_ = false;
  strategy_ = nullptr;
  ScheduleTrace trace = std::move(trace_);
  trace_ = ScheduleTrace{};
  return trace;
}

void Scheduler::ThreadStart(std::uint32_t tid) {
  std::unique_lock<std::mutex> lock(mu_);
  RWLE_CHECK(round_active_);
  RWLE_CHECK(tid < participants_.size());
  RWLE_CHECK(!participants_[tid].present);
  RWLE_CHECK(tls_tid < 0);
  tls_tid = static_cast<std::int32_t>(tid);
  participants_[tid].present = true;
  ++present_;
  ++live_;
  if (present_ == options_.threads) {
    // Everyone arrived: the synthetic round-start decision picks who opens.
    current_ = PickNextLocked(sched_hooks::SchedPoint::kRoundStart, Strategy::kNoRunner);
    cv_.notify_all();
  }
  cv_.wait(lock, [this, tid] { return free_run_ || current_ == tid; });
}

void Scheduler::ThreadExit() {
  std::unique_lock<std::mutex> lock(mu_);
  RWLE_CHECK(tls_tid >= 0);
  const auto tid = static_cast<std::uint32_t>(tls_tid);
  tls_tid = -1;
  participants_[tid].exited = true;
  RWLE_CHECK(live_ > 0);
  --live_;
  if (!free_run_ && current_ == tid) {
    current_ = PickNextLocked(sched_hooks::SchedPoint::kThreadUnregister, tid);
    cv_.notify_all();
  }
}

bool Scheduler::HookTrampoline(sched_hooks::SchedPoint point, const void* addr) {
  return Global().OnSchedPoint(point, addr);
}

bool Scheduler::OnSchedPoint(sched_hooks::SchedPoint point, const void* /*addr*/) {
  if (tls_tid < 0) {
    return false;  // not a participant: normal (free-running) behavior
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!round_active_ || free_run_) {
    return false;
  }
  const auto tid = static_cast<std::uint32_t>(tls_tid);
  // A participant only executes while scheduled, so it can only reach a
  // scheduling point as the current runner.
  RWLE_CHECK(current_ == tid);
  const std::uint32_t next = PickNextLocked(point, tid);
  if (free_run_) {
    return false;  // step budget hit inside the pick
  }
  if (next != tid) {
    current_ = next;
    cv_.notify_all();
    cv_.wait(lock, [this, tid] { return free_run_ || current_ == tid; });
    if (free_run_) {
      // Round stopped serializing while we were parked: report the point as
      // unconsumed so spin loops fall back to real OS yields.
      return false;
    }
  }
  return true;
}

std::uint32_t Scheduler::PickNextLocked(sched_hooks::SchedPoint point, std::uint32_t running) {
  std::vector<std::uint32_t> runnable;
  runnable.reserve(participants_.size());
  for (std::uint32_t tid = 0; tid < participants_.size(); ++tid) {
    if (participants_[tid].present && !participants_[tid].exited) {
      runnable.push_back(tid);
    }
  }
  if (runnable.empty()) {
    return Strategy::kNoRunner;
  }
  if (runnable.size() == 1) {
    // Forced choice: never recorded. Replay re-derives it, which is what
    // keeps traces compact (most scheduling points are forced).
    return runnable.front();
  }
  if (steps_ >= options_.max_steps) {
    EnterFreeRunLocked();
    return Strategy::kNoRunner;
  }
  const std::uint32_t choice = strategy_->Pick(runnable, running, point);
  RWLE_CHECK(std::find(runnable.begin(), runnable.end(), choice) != runnable.end());
  ++steps_;
  if (options_.record_trace) {
    trace_.steps.push_back(ScheduleStep{static_cast<std::uint8_t>(choice), point});
  }
  return choice;
}

void Scheduler::EnterFreeRunLocked() {
  free_run_ = true;
  trace_.truncated = true;
  current_ = Strategy::kNoRunner;
  cv_.notify_all();
}

// --- Bench-mode switch ------------------------------------------------------

namespace {

std::atomic<bool> g_scheduled_runs{false};
std::atomic<std::uint64_t> g_scheduled_runs_seed{0};

}  // namespace

void EnableScheduledRuns(std::uint64_t seed) {
  // Relaxed seed + release flag: the release store below publishes the seed
  // to any thread whose acquire load sees the flag set.
  g_scheduled_runs_seed.store(seed, std::memory_order_relaxed);
  // Release: pairs with the acquire in ScheduledRunsEnabled().
  g_scheduled_runs.store(true, std::memory_order_release);
}

// Release: keeps flag stores totally ordered with Enable; no data rides on
// the disable edge.
void DisableScheduledRuns() { g_scheduled_runs.store(false, std::memory_order_release); }

// Acquire: pairs with EnableScheduledRuns()'s release so a true flag
// guarantees the seed store is visible.
bool ScheduledRunsEnabled() { return g_scheduled_runs.load(std::memory_order_acquire); }

std::uint64_t ScheduledRunsSeed() {
  // Relaxed: callers check ScheduledRunsEnabled() first; its acquire edge
  // already made this seed visible.
  return g_scheduled_runs_seed.load(std::memory_order_relaxed);
}

}  // namespace rwle::sched
