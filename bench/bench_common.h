// Shared pieces of the benchmark stack: the resolved run options every
// scenario receives, the (panel x scheme x thread-count) grid runner, and
// the txsan analysis hooks. Flag parsing and scenario selection live in
// bench/scenarios/driver.cc; the scenario definitions themselves live in
// bench/scenarios/.
#ifndef RWLE_BENCH_BENCH_COMMON_H_
#define RWLE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/bench_harness.h"
#include "src/harness/result_sink.h"
#include "src/locks/lock_factory.h"
#include "src/trace/trace_sink.h"

#ifdef RWLE_ANALYSIS
#include "src/analysis/txsan.h"
#include "src/htm/htm_runtime.h"
#endif

namespace rwle {

// Options after the driver has resolved flags and scenario defaults:
// total_ops is always concrete here (the driver substitutes the scenario's
// default/full sweep size when --ops is not given).
struct BenchOptions {
  std::vector<std::uint32_t> thread_counts;
  std::uint64_t total_ops = 0;
  std::vector<std::string> schemes;
  std::uint64_t seed = 42;
  // Hardware profile name the driver applied globally via --hw; empty when
  // running the default config (power8). Recorded in the run manifest.
  std::string hw_profile;
  bool csv = false;
  bool full = false;
  bool analysis = false;
  bool progress = false;
  // Sojourn-time SLO targets for open-loop scenarios, in modeled
  // nanoseconds; 0 lets the scenario pick its documented defaults.
  std::uint64_t slo_p99_ns = 0;
  std::uint64_t slo_p999_ns = 0;
  // Non-null when the driver got --trace=FILE: locks are constructed with
  // this sink, and the grid labels a new trace run per benchmark cell.
  MemoryTraceSink* trace = nullptr;
};

// Turns on the txsan oracle for a --analysis run. Returns false (with a
// message) when this is not an RWLE_ANALYSIS build.
inline bool EnableAnalysis() {
#ifdef RWLE_ANALYSIS
  txsan::TxSan::Options txsan_options;
  txsan_options.abort_on_violation = false;  // summarize at exit instead
  txsan::TxSan::Global().Enable(txsan_options, &HtmRuntime::Global());
  return true;
#else
  std::fprintf(stderr,
               "--analysis requires a build configured with "
               "-DRWLE_ANALYSIS=ON\n");
  return false;
#endif
}

// Prints the txsan verdict after a --analysis run; no-op otherwise. Returns
// the number of violations (the bench main turns it into an exit code).
inline std::uint64_t FinishAnalysis(const BenchOptions& options) {
  if (!options.analysis) {
    return 0;
  }
#ifdef RWLE_ANALYSIS
  txsan::TxSan::Global().PrintSummary(stderr);
  return txsan::TxSan::Global().violation_count();
#else
  return 0;
#endif
}

// Runs the (write-ratio x scheme x thread-count) grid for one scenario,
// feeding every RunResult to `sink` (tables, JSON archive and progress all
// observe the same runs -- see result_sink.h).
//
// Workload state: `make_workload` builds a fresh workload for every
// (ratio, scheme, thread-count) cell, so no run starts from state mutated
// by a previous one. (Earlier revisions rebuilt only per (scheme, ratio)
// and swept thread counts over one instance, so the 32-thread run of a
// scheme started from whatever the 16-thread run left behind.)
//
// Seeding: a cell runs with DeriveCellSeed(options.seed, threads) -- see
// src/common/rng.h for the contract (RunBenchmark derives the per-thread
// streams deterministically from this value).
template <typename Workload>
void RunFigureGrid(
    const BenchOptions& options, ResultSink* sink,
    const std::vector<double>& write_ratios, const std::vector<std::string>& schemes,
    const std::function<std::unique_ptr<Workload>()>& make_workload,
    const std::function<void(Workload&, ElidableLock&, Rng&, bool)>& op) {
  for (const double ratio : write_ratios) {
    for (const auto& scheme : schemes) {
      LockOptions lock_options;
      lock_options.trace_sink = options.trace;
      auto lock = MakeLock(scheme, lock_options);
      for (const std::uint32_t threads : options.thread_counts) {
        auto workload = make_workload();
        RunOptions run;
        run.threads = threads;
        run.total_ops = options.total_ops;
        run.write_ratio = ratio;
        run.seed = DeriveCellSeed(options.seed, threads);
        if (options.trace != nullptr) {
          options.trace->BeginRun(scheme, ratio * 100.0, threads);
        }
        const RunResult result =
            RunBenchmark(run, *lock, [&](std::uint32_t, Rng& rng, bool is_write) {
              op(*workload, *lock, rng, is_write);
            });
        sink->Add(*lock, ratio * 100.0, result);
      }
    }
  }
}

}  // namespace rwle

#endif  // RWLE_BENCH_BENCH_COMMON_H_
