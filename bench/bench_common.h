// Shared pieces of the benchmark stack: the resolved run options every
// scenario receives, the one closed-loop cell runner every scenario sweep
// goes through, and the txsan analysis hooks. Flag parsing and scenario
// selection live in bench/scenarios/driver.cc; the scenario definitions
// themselves live in bench/scenarios/.
#ifndef RWLE_BENCH_BENCH_COMMON_H_
#define RWLE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/bench_harness.h"
#include "src/harness/result_serializer.h"
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
  // Sojourn-time SLO targets for open-loop scenarios, in modeled
  // nanoseconds; 0 lets the scenario pick its documented defaults.
  std::uint64_t slo_p99_ns = 0;
  std::uint64_t slo_p999_ns = 0;
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

// Starts a new labelled run in the --trace timeline: events emitted from
// here on belong to it. No-op while tracing is off.
inline void BeginTraceRun(const std::string& label, double panel_value,
                          std::uint32_t threads) {
  if (MemoryTraceSink* sink = ActiveTraceSink()) {
    sink->BeginRun(label, panel_value, threads);
  }
}

// Appends one completed run to `record` and reports it on stderr (never on
// stdout, which carries the tables). Returns the appended result.
inline RunResult& AddRun(ScenarioRecord& record, std::string_view scheme,
                         double panel_value, RunResult result) {
  record.entries.push_back({std::string(scheme), panel_value, std::move(result)});
  ScenarioRecord::Entry& entry = record.entries.back();
  const StatsSnapshot snapshot = entry.result.stats.Snapshot();
  std::fprintf(stderr,
               "[%s %zu] %s panel=%g threads=%u: modeled %.3f ms, wall %.1f ms, "
               "%llu commits, %llu aborts\n",
               record.manifest.scenario.c_str(), record.entries.size(),
               entry.scheme.c_str(), panel_value, entry.result.threads,
               entry.result.modeled_seconds * 1e3, entry.result.wall_seconds * 1e3,
               static_cast<unsigned long long>(snapshot.commits.Total()),
               static_cast<unsigned long long>(snapshot.aborts.Total()));
  std::fflush(stderr);
  return entry.result;
}

// Where one closed-loop cell sits in a scenario's sweep.
struct Cell {
  std::string trace_run;  // names the cell's run in the --trace timeline
  double panel_value = 0.0;
  double write_ratio = 0.0;
  std::uint32_t threads = 0;
};

// Runs one closed-loop cell and appends it to `record` under the lock's
// name. Every closed-loop scenario sweep goes through here.
//
// Fresh state: the cell gets its own lock from `make_lock()` and its own
// workload from `make_workload(lock)`, so no run starts from state a
// previous one left behind. (A reused BRAVO lock, for one, would carry its
// reader bias and an inhibit-until stamp on a cost clock RunBenchmark has
// since reset.) `op(workload, lock, thread, rng, is_write)` runs one
// operation.
//
// Seeding: the cell runs with DeriveCellSeed(options.seed, threads) -- see
// src/common/rng.h for the contract (RunBenchmark derives the per-thread
// streams deterministically from this value).
//
// Returns the appended result, so a scenario can attach measurements of its
// own.
template <typename MakeLockFn, typename MakeWorkloadFn, typename Op>
RunResult& RunCell(const BenchOptions& options, const Cell& cell, ScenarioRecord& record,
                   const MakeLockFn& make_lock, const MakeWorkloadFn& make_workload,
                   const Op& op) {
  const auto lock = make_lock();
  const auto workload = make_workload(*lock);
  RunOptions run;
  run.threads = cell.threads;
  run.total_ops = options.total_ops;
  run.write_ratio = cell.write_ratio;
  run.seed = DeriveCellSeed(options.seed, cell.threads);
  BeginTraceRun(cell.trace_run, cell.panel_value, cell.threads);
  RunResult result =
      RunBenchmark(run, *lock, [&](std::uint32_t thread, Rng& rng, bool is_write) {
        op(*workload, *lock, thread, rng, is_write);
      });
  return AddRun(record, lock->name(), cell.panel_value, std::move(result));
}

}  // namespace rwle

#endif  // RWLE_BENCH_BENCH_COMMON_H_
