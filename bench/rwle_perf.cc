// Wall-clock micro-benchmarks of the fabric hot path: the self-profiling
// harness behind the repo's ns/op performance trajectory (PERFORMANCE.md).
//
// Everything rwle_bench measures flows through the software TM fabric
// (ConflictTable, TxVar, HtmRuntime), but rwle_bench gates *modeled* time
// only -- a simulator slowdown would pass every modeled gate while making
// real sweeps slower. rwle_perf times the primitive fabric operations in
// real nanoseconds per op and emits a schema-stable JSON report
// (src/harness/perf_report.h) that tools/bench_compare.py diffs against
// results/baseline/perf.json (the CI perf-smoke job).
//
// Single-threaded on purpose: contention effects belong to the modeled
// layer; this harness isolates the per-operation software overhead that a
// refactor can silently regress. Each benchmark runs --reps repetitions of
// --ops operations; the *minimum* ns/op over reps is the reported (and
// gated) number, since the minimum is the least-disturbed measurement on a
// shared host.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/chop/chopped_section.h"
#include "src/common/flags.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_registry.h"
#include "src/harness/perf_report.h"
#include "src/harness/result_serializer.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/tx_write_set.h"
#include "src/locks/br_lock.h"
#include "src/locks/bravo_lock.h"
#include "src/memory/tx_var.h"
#include "src/rwle/rwle_lock.h"
#include "src/trace/trace_sink.h"

namespace rwle {
namespace {

// Defeats dead-code elimination of a computed value without the memory
// round-trip a volatile store would add.
inline void KeepAlive(std::uint64_t value) { asm volatile("" : : "g"(value) : "memory"); }

// --- Benchmark bodies -------------------------------------------------------
//
// Each body runs exactly `ops` operations of its kind; setup state is
// function-local static so it is constructed once, outside any timed rep.

// The RW-LE reader's fast path primitive: a fabric load with no live
// transaction (owner check, no tracking, no buffering).
void UninstrumentedRead(std::uint64_t ops) {
  static TxVar<std::uint64_t> cell(1);
  for (std::uint64_t i = 0; i < ops; ++i) {
    KeepAlive(cell.Load());
  }
}

// Non-transactional store: owner check + reader-invalidation scan + store.
void NonTxStore(std::uint64_t ops) {
  static TxVar<std::uint64_t> cell(1);
  for (std::uint64_t i = 0; i < ops; ++i) {
    cell.Store(i);
  }
}

// nontx_store with seven more registry slots claimed and idle: pins the
// reader scan's cost when no thread's summary bit is set, the shape of the
// STMBench7 fallback path's NS stores.
void NonTxStoreIdlePeers(std::uint64_t ops) {
  ThreadRegistry& registry = ThreadRegistry::Global();
  std::uint32_t peers[7];
  for (std::uint32_t& peer : peers) {
    peer = registry.Register();
  }
  NonTxStore(ops);
  for (const std::uint32_t peer : peers) {
    registry.Unregister(peer);
  }
}

// The writer hot path: begin, one buffered store (line claim + redo
// buffer), aggregate-store commit with set-log release.
void HtmWriteCommit(std::uint64_t ops) {
  static TxVar<std::uint64_t> cell(1);
  HtmRuntime& runtime = HtmRuntime::Global();
  for (std::uint64_t i = 0; i < ops; ++i) {
    runtime.TxBegin(TxKind::kHtm);
    cell.Store(i);
    runtime.TxCommit();
  }
}

// Same shape on the ROT path (untracked load + tracked store).
void RotWriteCommit(std::uint64_t ops) {
  static TxVar<std::uint64_t> cell(1);
  HtmRuntime& runtime = HtmRuntime::Global();
  for (std::uint64_t i = 0; i < ops; ++i) {
    runtime.TxBegin(TxKind::kRot);
    cell.Store(cell.Load() + 1);
    runtime.TxCommit();
  }
}

// Read-set tracking: one transaction loading 8 distinct lines, so commit
// must release 8 reader bits via the read-set log.
void HtmRead8Commit(std::uint64_t ops) {
  static TxVar<std::uint64_t> cells[8];
  HtmRuntime& runtime = HtmRuntime::Global();
  for (std::uint64_t i = 0; i < ops; ++i) {
    runtime.TxBegin(TxKind::kHtm);
    std::uint64_t sum = 0;
    for (auto& cell : cells) {
      sum += cell.Load();
    }
    runtime.TxCommit();
    KeepAlive(sum);
  }
}

// One op = a doomed attempt (explicit abort: unwind, footprint release,
// epoch advance) followed by the retry that commits -- the shape of every
// conflict-then-succeed cycle in the elision layer.
void AbortRetry(std::uint64_t ops) {
  static TxVar<std::uint64_t> cell(1);
  HtmRuntime& runtime = HtmRuntime::Global();
  for (std::uint64_t i = 0; i < ops; ++i) {
    try {
      runtime.TxBegin(TxKind::kHtm);
      cell.Store(i);
      runtime.TxAbort(AbortCause::kExplicit);
    } catch (const TxAbortException&) {
      // expected: the abort unwinds to the retry loop
    }
    runtime.TxBegin(TxKind::kHtm);
    cell.Store(i);
    runtime.TxCommit();
  }
}

// Full RW-LE read critical section: epoch-clock enter/exit around an
// uninstrumented load.
void RwLeReadSection(std::uint64_t ops) {
  static RwLeLock lock;
  static TxVar<std::uint64_t> cell(1);
  for (std::uint64_t i = 0; i < ops; ++i) {
    std::uint64_t value = 0;
    lock.Read([&] { value = cell.Load(); });
    KeepAlive(value);
  }
}

// Full RW-LE write critical section on the uncontended HTM path, including
// the suspend + quiescence + resume + commit sequence.
void RwLeWriteSection(std::uint64_t ops) {
  static RwLeLock lock;
  static TxVar<std::uint64_t> cell(1);
  for (std::uint64_t i = 0; i < ops; ++i) {
    lock.Write([&] { cell.Store(cell.Load() + 1); });
  }
}

// Full chopped write section: a two-piece chain (chain begin, two chained
// piece commits capturing into the carryover, NS publication window with
// the chain's single quiescence barrier). A/B against rwle_write_section:
// the delta is the whole chain machinery per section (DESIGN.md §14).
void ChoppedWriteCommit(std::uint64_t ops) {
  static RwLeLock lock;
  static ChoppedSection chopped(lock);
  static TxVar<std::uint64_t> cells[2];
  for (std::uint64_t i = 0; i < ops; ++i) {
    chopped.Write(2, [&](std::size_t piece) {
      cells[piece].Store(cells[piece].Load() + 1);
    });
  }
}

// One op = one piece boundary in isolation: a chained commit (capture the
// buffered store into the carryover instead of publishing) plus the next
// piece's begin-with-carryover-redo load. A/B against htm_write_commit: the
// delta is capture-vs-publish plus the chain-redo check every in-chain load
// pays. The chain is abandoned (never published) so the timed loop stays on
// the piece path only.
void ChopPieceBoundary(std::uint64_t ops) {
  static TxVar<std::uint64_t> cell(1);
  static TxWriteSet carryover;
  HtmRuntime& runtime = HtmRuntime::Global();
  runtime.BeginChain(&carryover);
  for (std::uint64_t i = 0; i < ops; ++i) {
    runtime.TxBegin(TxKind::kHtm);
    cell.Store(cell.Load() + 1);
    runtime.TxCommitChained(carryover);
  }
  runtime.EndChain(/*committed=*/false);
  carryover.Clear();
}

// BRAVO biased reader fast path: bias check, slot-hashed table publish,
// bias recheck, uninstrumented load, withdraw -- the read that never
// touches the centralized underlay word.
void BravoReadSection(std::uint64_t ops) {
  static BravoLock lock;
  static TxVar<std::uint64_t> cell(1);
  for (std::uint64_t i = 0; i < ops; ++i) {
    std::uint64_t value = 0;
    lock.Read([&] { value = cell.Load(); });
    KeepAlive(value);
  }
}

// BRLock reader: lock and unlock the caller's cache-line-private mutex
// around an uninstrumented load -- the read-side baseline RW-LE competes
// with.
void BrLockReadSection(std::uint64_t ops) {
  static BrLock lock;
  static TxVar<std::uint64_t> cell(1);
  for (std::uint64_t i = 0; i < ops; ++i) {
    std::uint64_t value = 0;
    lock.Read([&] { value = cell.Load(); });
    KeepAlive(value);
  }
}

// One op = a write that revokes the bias (clear + full-table drain scan)
// plus the slow read that immediately re-arms it (inhibit_multiplier = 0,
// the setting Options documents for exactly this benchmark).
void BravoRevoke(std::uint64_t ops) {
  static BravoLock lock([] {
    BravoLock::Options options;
    options.inhibit_multiplier = 0;
    return options;
  }());
  static TxVar<std::uint64_t> cell(1);
  for (std::uint64_t i = 0; i < ops; ++i) {
    lock.Write([&] { cell.Store(cell.Load() + 1); });
    std::uint64_t value = 0;
    lock.Read([&] { value = cell.Load(); });
    KeepAlive(value);
  }
}

// The quiescence scan with no readers in flight: snapshot all epoch clocks
// up to the registry watermark, nothing odd, return.
void QuiescenceScan(std::uint64_t ops) {
  static RwLeLock lock;
  for (std::uint64_t i = 0; i < ops; ++i) {
    lock.Synchronize();
  }
}

// Trace-ring append with a live sink: event construction, per-lane seq
// stamping, lock-free ring push (wraps and overwrites once full).
void TraceRingAppend(std::uint64_t ops) {
  static MemoryTraceSink sink;
  const ScopedTraceSink tracing(sink);
  for (std::uint64_t i = 0; i < ops; ++i) {
    EmitTraceEvent(TraceEventType::kTxBegin, /*detail_a=*/0, /*detail_b=*/0, /*arg=*/i);
  }
}

struct MicroBench {
  const char* name;
  const char* what;
  void (*body)(std::uint64_t ops);
};

// Stable names: these are the keys bench_compare.py matches on; renaming
// one orphans its baseline entry.
constexpr MicroBench kBenchmarks[] = {
    {"uninstrumented_read", "fabric load, no transaction (RW-LE reader primitive)",
     UninstrumentedRead},
    {"nontx_store", "fabric store, no transaction (invalidation scan included)",
     NonTxStore},
    {"htm_write_commit", "HTM tx: begin + 1 buffered store + commit", HtmWriteCommit},
    {"rot_write_commit", "ROT tx: begin + untracked load + store + commit",
     RotWriteCommit},
    {"htm_read8_commit", "HTM tx: 8 tracked loads + commit (read-set log)",
     HtmRead8Commit},
    {"abort_retry", "explicit abort + unwind + successful retry", AbortRetry},
    {"rwle_read_section", "RwLeLock.Read: epoch clocks + uninstrumented load",
     RwLeReadSection},
    {"rwle_write_section", "RwLeLock.Write: HTM path incl. quiescence",
     RwLeWriteSection},
    {"chopped_write_commit", "ChoppedSection.Write: 2-piece chain + publication",
     ChoppedWriteCommit},
    {"chop_piece_boundary", "chained piece commit (capture) + next piece begin",
     ChopPieceBoundary},
    {"bravo_read_section", "BravoLock.Read: biased fast path via the reader table",
     BravoReadSection},
    {"bravo_revoke", "BravoLock: bias revocation (table drain) + re-arming read",
     BravoRevoke},
    {"brlock_read_section", "BrLock.Read: per-slot reader mutex + uninstrumented load",
     BrLockReadSection},
    {"quiescence_scan", "RwLeLock.Synchronize with no readers", QuiescenceScan},
    {"trace_ring_append", "EmitTraceEvent into a MemoryTraceSink lane", TraceRingAppend},
    // Last: it raises the registry watermark that later scans would pay for.
    {"nontx_store_8slots", "nontx_store with 7 more registry slots claimed, idle",
     NonTxStoreIdlePeers},
};

PerfBenchmarkResult RunBench(const MicroBench& bench, std::uint64_t ops,
                             std::uint64_t reps) {
  // One untimed warmup pass populates caches, lazily-allocated lanes and
  // function-local statics.
  bench.body(std::min<std::uint64_t>(ops, 10000));

  double min_ns_per_op = 0.0;
  double sum_ns_per_op = 0.0;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    bench.body(ops);
    const double ns_per_op =
        static_cast<double>(timer.ElapsedNanos()) / static_cast<double>(ops);
    sum_ns_per_op += ns_per_op;
    if (rep == 0 || ns_per_op < min_ns_per_op) {
      min_ns_per_op = ns_per_op;
    }
  }

  PerfBenchmarkResult result;
  result.name = bench.name;
  result.ns_per_op = min_ns_per_op;
  result.ns_per_op_mean = sum_ns_per_op / static_cast<double>(reps);
  result.total_ops = ops * reps;
  result.reps = reps;
  return result;
}

int PerfMain(int argc, char** argv) {
  std::uint64_t ops = 200000;
  std::uint64_t reps = 5;
  std::string json_path;
  std::string filter;
  bool list = false;

  FlagSet flags(
      "rwle_perf: wall-clock ns/op micro-benchmarks of the TM-fabric hot path.\n"
      "Reports min-over-reps ns/op per benchmark; --json writes the document\n"
      "gated by tools/bench_compare.py against results/baseline/perf.json\n"
      "(workflow in PERFORMANCE.md).");
  flags.AddUint("ops", &ops, "operations per repetition");
  flags.AddUint("reps", &reps, "timed repetitions per benchmark (min is reported)");
  flags.AddString("json", &json_path, "write the JSON perf document to this file");
  flags.AddString("filter", &filter, "run only benchmarks whose name contains this");
  flags.AddBool("list", &list, "list benchmark names and exit");

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(flags.Usage().c_str(), stdout);
      return 0;
    }
  }
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (ops == 0 || reps == 0) {
    std::fprintf(stderr, "rwle_perf: --ops and --reps must be positive\n");
    return 2;
  }

  if (list) {
    for (const MicroBench& bench : kBenchmarks) {
      std::printf("%-20s %s\n", bench.name, bench.what);
    }
    return 0;
  }

  // All benchmarks run on this (registered) thread; the fabric needs a slot
  // for conflict tracking and cost accounting.
  ScopedThreadSlot slot;

  std::vector<PerfBenchmarkResult> results;
  std::printf("%-20s %12s %12s   %s\n", "benchmark", "ns/op(min)", "ns/op(mean)",
              "what");
  for (const MicroBench& bench : kBenchmarks) {
    if (!filter.empty() && std::string(bench.name).find(filter) == std::string::npos) {
      continue;
    }
    const PerfBenchmarkResult result = RunBench(bench, ops, reps);
    std::printf("%-20s %12.1f %12.1f   %s\n", result.name.c_str(), result.ns_per_op,
                result.ns_per_op_mean, bench.what);
    std::fflush(stdout);
    results.push_back(result);
  }

  if (results.empty()) {
    std::fprintf(stderr, "rwle_perf: no benchmark matches --filter=%s\n",
                 filter.c_str());
    return 2;
  }

  if (!json_path.empty()) {
    PerfManifest manifest;
    manifest.ops_per_rep = ops;
    manifest.reps = reps;
    manifest.git_sha = BuildGitSha();
    manifest.created_unix = NowUnixSeconds();
    if (!WritePerfFile(json_path, manifest, results)) {
      return 2;
    }
    std::fprintf(stderr, "rwle_perf: wrote %zu benchmark(s) to %s\n", results.size(),
                 json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace rwle

int main(int argc, char** argv) { return rwle::PerfMain(argc, argv); }
