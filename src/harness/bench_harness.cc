#include "src/harness/bench_harness.h"

#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/barrier.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/locks/elidable_lock.h"
#include "src/trace/latency_histogram.h"

#ifdef RWLE_SCHED
#include "src/sched/scheduler.h"
#include "src/sched/strategy.h"
#endif

namespace rwle {

namespace {

// The worker scaffold both harnesses share: opens the --sched round (if
// any), splits `total_ops` among `threads` workers (remainder to the first
// ones), and calls `body(t, ops, rng, slot)` once per worker between a start
// and a finish barrier. Returns the wall time between the two barriers,
// after every worker has joined.
template <typename Body>
double RunWorkers(std::uint32_t threads, std::uint64_t total_ops, std::uint64_t seed,
                  const Body& body) {
#ifdef RWLE_SCHED
  // --sched: serialize the measured region of this cell under a seeded
  // random schedule (controlled-stress mode, see src/sched/scheduler.h).
  // Workers only become participants after the start barrier, so setup and
  // the barrier itself stay free-running.
  std::unique_ptr<sched::RandomStrategy> sched_strategy;
  if (sched::ScheduledRunsEnabled()) {
    sched_strategy = std::make_unique<sched::RandomStrategy>(
        DeriveScheduleSeed(sched::ScheduledRunsSeed(), seed));
    sched_strategy->BeginSchedule(0);
    sched::Scheduler::RoundOptions round;
    round.threads = threads;
    round.max_steps = UINT64_MAX;  // benchmarks never fall back to free-run
    round.record_trace = false;
    sched::Scheduler::Global().BeginRound(sched_strategy.get(), round);
  }
#endif

  SpinBarrier barrier(threads + 1);  // workers + timekeeper
  std::vector<std::thread> workers;
  workers.reserve(threads);

  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(DeriveThreadSeed(seed, t));
      std::uint64_t my_ops = total_ops / threads;
      if (t < total_ops % threads) {
        ++my_ops;
      }
      barrier.Wait();  // start line
      // Held until after the finish line. A worker that released its slot
      // while others still ran would let a late starter claim it and
      // inherit its CostMeter shard and trace lane. Released outside the
      // scheduled round, so unregistration is free-running; every slot is
      // free again before the next run registers.
      std::optional<ScopedThreadSlot> slot;
      {
#ifdef RWLE_SCHED
        const sched::RoundParticipant participant(t);  // no-op without a round
#endif
        // Registered after joining the round so that under --sched slots
        // assign in schedule order, not OS arrival order (slot index feeds
        // epoch-clock lanes and conflict-table identity).
        body(t, my_ops, rng, slot.emplace());
      }
      barrier.Wait();  // finish line
    });
  }

  barrier.Wait();
  Stopwatch stopwatch;
  barrier.Wait();
  const double wall = stopwatch.ElapsedSeconds();

  for (auto& worker : workers) {
    worker.join();
  }

#ifdef RWLE_SCHED
  if (sched_strategy != nullptr) {
    (void)sched::Scheduler::Global().EndRound();
  }
#endif
  return wall;
}

}  // namespace

RunResult RunBenchmark(const RunOptions& options, ElidableLock& lock, const OpFn& op) {
  RWLE_CHECK(options.threads > 0);
  RWLE_CHECK(options.threads <= kMaxThreads);

  lock.stats().Reset();
  lock.latency().Reset();
  CostMeter::Global().Reset();
  CostMeter::Global().set_contention_factor(options.threads);

  const double wall = RunWorkers(
      options.threads, options.total_ops, options.seed,
      [&](std::uint32_t t, std::uint64_t ops, Rng& rng, const ScopedThreadSlot&) {
        for (std::uint64_t i = 0; i < ops; ++i) {
          const bool is_write = rng.NextBool(options.write_ratio);
          op(t, rng, is_write);
        }
      });

  RunResult result;
  result.threads = options.threads;
  result.total_ops = options.total_ops;
  result.wall_seconds = wall;
  result.cost = CostMeter::Global().Aggregate();
  result.modeled_seconds = CostMeter::ModeledSeconds(result.cost, options.threads);
  result.stats = lock.stats().Aggregate();
  result.latency = lock.latency().Snapshot();
  return result;
}

RunResult RunServiceBenchmark(const ServiceRunOptions& options, ElidableLock& lock,
                              const OpFn& op) {
  RWLE_CHECK(options.threads > 0);
  RWLE_CHECK(options.threads <= kMaxThreads);
  RWLE_CHECK(options.arrival_rate_ops > 0.0);

  lock.stats().Reset();
  lock.latency().Reset();
  CostMeter& meter = CostMeter::Global();
  meter.Reset();
  meter.set_contention_factor(options.threads);

  // Mean inter-arrival gap per server, in modeled cycles: each of the
  // `threads` servers draws an independent Poisson sub-stream at
  // rate/threads, which superpose to a Poisson stream at the full rate.
  const double cycles_per_arrival =
      CostModel::kCyclesPerSecond * options.threads / options.arrival_rate_ops;

  // Per-worker measurement state, harvested after join (no sharing while
  // the run is live, so plain members suffice).
  struct WorkerResult {
    LatencyHistogram sojourn;
    std::uint64_t queue_delay_sum = 0;
    std::uint64_t queue_delay_max = 0;
    std::uint64_t end_cycles = 0;
  };
  std::vector<WorkerResult> per_worker(options.threads);

  const double wall = RunWorkers(
      options.threads, options.total_ops, options.seed,
      [&](std::uint32_t t, std::uint64_t ops, Rng& rng, const ScopedThreadSlot& slot) {
        WorkerResult& mine = per_worker[t];
        // Virtual arrival clock, in modeled cycles since the run start.
        // CostMeter::Reset zeroed this slot's shard, so SlotCycles and the
        // arrival clock share an origin.
        double next_arrival = 0.0;
        for (std::uint64_t i = 0; i < ops; ++i) {
          // Exponential inter-arrival via inverse CDF; NextDouble is in
          // [0, 1) so the log argument stays in (0, 1].
          next_arrival += -std::log(1.0 - rng.NextDouble()) * cycles_per_arrival;
          const std::uint64_t arrival = static_cast<std::uint64_t>(next_arrival);
          const std::uint64_t now = meter.SlotCycles(slot.slot());
          if (now < arrival) {
            // Server is ahead of the arrival stream: idle until the request
            // shows up. Charging the gap keeps SlotCycles == virtual time,
            // so trace timestamps and sojourns stay on one axis.
            meter.ChargeAt(slot.slot(), arrival - now);
          } else {
            // Server is behind: the request queued for (now - arrival).
            const std::uint64_t delay = now - arrival;
            mine.queue_delay_sum += delay;
            if (delay > mine.queue_delay_max) {
              mine.queue_delay_max = delay;
            }
          }
          const bool is_write = rng.NextBool(options.write_ratio);
          op(t, rng, is_write);
          const std::uint64_t completed = meter.SlotCycles(slot.slot());
          mine.sojourn.Record(completed - arrival);
        }
        mine.end_cycles = meter.SlotCycles(slot.slot());
      });

  LatencyHistogram sojourn;
  std::uint64_t queue_delay_sum = 0;
  std::uint64_t queue_delay_max = 0;
  std::uint64_t horizon_cycles = 0;
  for (const WorkerResult& worker : per_worker) {
    sojourn.Merge(worker.sojourn);
    queue_delay_sum += worker.queue_delay_sum;
    if (worker.queue_delay_max > queue_delay_max) {
      queue_delay_max = worker.queue_delay_max;
    }
    if (worker.end_cycles > horizon_cycles) {
      horizon_cycles = worker.end_cycles;
    }
  }

  RunResult result;
  result.threads = options.threads;
  result.total_ops = options.total_ops;
  result.wall_seconds = wall;
  result.cost = meter.Aggregate();
  result.stats = lock.stats().Aggregate();
  result.latency = lock.latency().Snapshot();

  ServiceSnapshot& service = result.service;
  service.offered_rate_ops = options.arrival_rate_ops;
  service.arrivals = options.total_ops;
  service.completions = sojourn.count();
  service.horizon_seconds =
      static_cast<double>(horizon_cycles) / CostModel::kCyclesPerSecond;
  service.achieved_rate_ops =
      service.horizon_seconds > 0
          ? static_cast<double>(service.completions) / service.horizon_seconds
          : 0.0;
  service.sojourn_mean_ns = sojourn.Mean();
  service.sojourn_p50_ns = sojourn.ValueAtPercentile(50.0);
  service.sojourn_p90_ns = sojourn.ValueAtPercentile(90.0);
  service.sojourn_p99_ns = sojourn.ValueAtPercentile(99.0);
  service.sojourn_p999_ns = sojourn.ValueAtPercentile(99.9);
  service.sojourn_max_ns = sojourn.max();
  service.queue_delay_mean_ns =
      service.completions > 0
          ? static_cast<double>(queue_delay_sum) / static_cast<double>(service.completions)
          : 0.0;
  service.queue_delay_max_ns = queue_delay_max;
  service.slo_p99_ns = options.slo_p99_ns;
  service.slo_p999_ns = options.slo_p999_ns;
  service.slo_met =
      (options.slo_p99_ns == 0 || service.sojourn_p99_ns <= options.slo_p99_ns) &&
      (options.slo_p999_ns == 0 || service.sojourn_p999_ns <= options.slo_p999_ns);

  // The open-loop "modeled time" is the virtual horizon (last completion),
  // so ModeledThroughput() reports the achieved service rate rather than
  // the closed-loop makespan bound.
  result.modeled_seconds = service.horizon_seconds;
  return result;
}

}  // namespace rwle
