// Multi-threaded benchmark driver used by every figure binary and by the
// integration tests: spawns worker threads, lines them up on a barrier,
// splits a fixed operation count among them, and collects wall time,
// modeled time (see src/stats/cost_meter.h) and the commit/abort breakdown.
#ifndef RWLE_SRC_HARNESS_BENCH_HARNESS_H_
#define RWLE_SRC_HARNESS_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>

#include "src/common/rng.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"
#include "src/trace/latency_registry.h"

namespace rwle {

class ElidableLock;

struct RunOptions {
  std::uint32_t threads = 2;
  // Total operations across all threads (split evenly; remainder to the
  // first threads), matching the paper's fixed-work "execution time" plots.
  std::uint64_t total_ops = 10000;
  // Probability that an operation takes the write lock ("w" in the paper).
  double write_ratio = 0.1;
  std::uint64_t seed = 42;
};

struct RunResult {
  std::uint32_t threads = 0;
  std::uint64_t total_ops = 0;
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  CostMeter::Totals cost;
  ThreadStats stats;
  // Modeled per-op latency percentiles, snapshotted from the lock's latency
  // registry (see ElidableLock::latency()).
  LatencySnapshot latency;
  // Open-loop service measurement; populated only by RunServiceBenchmark
  // (arrivals == 0 otherwise, and the serializer omits the block).
  ServiceSnapshot service;
  // Hardware-portability measurement; populated only by the portability
  // scenario (empty hw_profile otherwise, and the serializer omits it).
  PortabilitySnapshot portability;

  double ModeledThroughput() const {
    return modeled_seconds > 0 ? static_cast<double>(total_ops) / modeled_seconds : 0.0;
  }
};

// Per-operation callback: thread_index in [0, threads), a per-thread rng,
// and whether this operation must use the write lock.
using OpFn = std::function<void(std::uint32_t thread_index, Rng& rng, bool is_write)>;

// Runs the benchmark against `lock`: resets the lock's stats and latency
// registries and the global CostMeter, runs the workers, then harvests all
// three into the result. The op callback is responsible for calling
// lock.Read/Write itself. Worker threads register ScopedThreadSlots; the
// caller must NOT hold one on the calling thread while the run executes
// workers (the harness runs ops only on the spawned workers).
RunResult RunBenchmark(const RunOptions& options, ElidableLock& lock, const OpFn& op);

// Open-loop service run (DESIGN.md §12, EXPERIMENTS.md "Open-loop service
// scenario"): instead of the closed fixed-work loop above, requests arrive
// on a Poisson stream at `arrival_rate_ops` and each of `threads` servers
// drains its own sub-stream FCFS along a virtual timeline of modeled
// cycles. A server that is ahead of the next arrival idles -- the gap is
// charged through CostMeter so the per-slot clock *is* the virtual time
// axis (trace timestamps and sojourns share it); a server that is behind
// accrues queueing delay for the waiting request.
struct ServiceRunOptions {
  std::uint32_t threads = 4;  // fixed server pool
  // Total arrivals across all servers (split evenly; remainder to the
  // first servers). Every arrival is eventually served: this measures
  // latency under load, not load shedding.
  std::uint64_t total_ops = 10000;
  // Aggregate Poisson arrival rate in ops per modeled second. Each server
  // draws an independent exponential inter-arrival stream at rate/threads
  // (a superposition of Poisson streams is Poisson).
  double arrival_rate_ops = 1e6;
  double write_ratio = 0.1;
  std::uint64_t seed = 42;
  // Sojourn-time targets in modeled nanoseconds; 0 = no target.
  std::uint64_t slo_p99_ns = 0;
  std::uint64_t slo_p999_ns = 0;
};

// Runs the open-loop benchmark and fills result.service (sojourn
// percentiles, achieved throughput, SLO verdict). result.modeled_seconds
// is the virtual horizon (time until the last completion), so
// ModeledThroughput() reports the *achieved* rate.
RunResult RunServiceBenchmark(const ServiceRunOptions& options, ElidableLock& lock,
                              const OpFn& op);

}  // namespace rwle

#endif  // RWLE_SRC_HARNESS_BENCH_HARNESS_H_
