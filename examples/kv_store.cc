// A concurrent key-value store, the legacy-code scenario from the paper's
// introduction: an application synchronized by one read-write lock, sped up
// by swapping the lock for its elided version -- no changes to the data
// structure or the critical sections.
//
// Runs the same lookup-heavy workload under pthread-style RWL and under
// RW-LE, and prints throughput plus the commit/abort breakdowns.
//
// Usage: ./examples/kv_store [--threads N] [--ops N] [--writes PCT]
#include <cstdio>
#include <memory>

#include "src/common/flags.h"
#include "src/harness/bench_harness.h"
#include "src/locks/lock_factory.h"
#include "src/workloads/hashmap/hashmap_workload.h"

int main(int argc, char** argv) {
  std::uint64_t threads = 4;
  std::uint64_t ops = 40000;
  std::uint64_t writes_pct = 10;

  rwle::FlagSet flags("Concurrent KV store: RWL vs RW-LE");
  flags.AddUint("threads", &threads, "worker threads");
  flags.AddUint("ops", &ops, "total operations");
  flags.AddUint("writes", &writes_pct, "percent of operations that update");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  for (const char* scheme : {"rwl", "rwle-opt"}) {
    auto lock = rwle::MakeLock(scheme);
    // The store: a chained hashmap with long buckets, so lookups have a
    // footprint that defeats plain HLE but not RW-LE.
    rwle::HashMapWorkload store(rwle::HashMapScenario{.buckets = 64, .per_bucket = 100});

    rwle::RunOptions options;
    options.threads = static_cast<std::uint32_t>(threads);
    options.total_ops = ops;
    options.write_ratio = static_cast<double>(writes_pct) / 100.0;
    const rwle::RunResult result = rwle::RunBenchmark(
        options, *lock, [&](std::uint32_t, rwle::Rng& rng, bool is_write) {
          store.Op(*lock, rng, is_write);
        });

    std::printf("%-10s  wall %.1f ms | modeled %.3f ms | modeled throughput %.1f Mops/s\n",
                scheme, result.wall_seconds * 1e3, result.modeled_seconds * 1e3,
                result.ModeledThroughput() / 1e6);
    std::printf("            commits: HTM %llu, ROT %llu, serial %llu, uninstr. reads %llu"
                " | aborts %llu\n",
                static_cast<unsigned long long>(
                    result.stats.commits[static_cast<int>(rwle::CommitPath::kHtm)]),
                static_cast<unsigned long long>(
                    result.stats.commits[static_cast<int>(rwle::CommitPath::kRot)]),
                static_cast<unsigned long long>(
                    result.stats.commits[static_cast<int>(rwle::CommitPath::kSerial)]),
                static_cast<unsigned long long>(result.stats.commits[static_cast<int>(
                    rwle::CommitPath::kUninstrumentedRead)]),
                static_cast<unsigned long long>(result.stats.TotalAborts()));
  }
  return 0;
}
