// Open-loop service scenario: requests arrive on a Poisson stream and queue
// for a fixed server pool instead of the closed fixed-work loop the figure
// scenarios use (see src/harness/bench_harness.h, RunServiceBenchmark).
// Keys are Zipf-skewed (YCSB's theta = 0.99), so a handful of head buckets
// absorb most of the traffic -- the regime where reader-side scalability
// and writer-induced tail stalls actually show up in sojourn time.
//
// The panel axis is *offered load as a fraction of modeled capacity*: each
// scheme is first calibrated with a single-threaded closed-loop run, the
// pool's capacity is extrapolated from the measured mean service time, and
// the arrival-rate sweep offers {30, 60, 90, 120}% of that. This keeps the
// saturation knee in-frame for every scheme and pool size without hand-tuned
// absolute rates; the achieved rate and the SLO verdict are in the result's
// "service" block.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/scenarios/scenario.h"
#include "src/common/rng.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {
namespace {

// Sojourn-time targets applied when the user passes no --slo-p99-ns /
// --slo-p999-ns: a mid-tier service envelope of 50us p99 / 200us p99.9 in
// modeled time, loose enough that healthy schemes pass at moderate load and
// tight enough that the 120%-overload panel fails for everyone.
constexpr std::uint64_t kDefaultSloP99Ns = 50'000;
constexpr std::uint64_t kDefaultSloP999Ns = 200'000;

constexpr double kServiceWriteRatio = 0.10;
constexpr double kZipfTheta = 0.99;

// Hashmap service table: enough buckets that the *tail* of the key
// distribution is uncontended, few enough that the Zipf head keeps a handful
// of buckets hot. Zipf ranks map to keys directly, so rank 0..31 all land in
// the first few buckets of TxHashMap's modular placement.
constexpr std::size_t kServiceBuckets = 256;
constexpr std::size_t kServicePerBucket = 32;

// HashMapWorkload with Zipf-skewed key popularity instead of uniform keys.
class ZipfHashMapWorkload {
 public:
  ZipfHashMapWorkload()
      : hashmap_({kServiceBuckets, kServicePerBucket}),
        zipf_(kServiceBuckets * kServicePerBucket, kZipfTheta) {}

  void Op(ElidableLock& lock, Rng& rng, bool is_write) {
    hashmap_.OpOnKey(lock, rng, zipf_.Next(rng), is_write);
  }

 private:
  HashMapWorkload hashmap_;
  ZipfGenerator zipf_;
};

void RunServiceSweep(const ScenarioSpec& spec, const BenchOptions& options,
                     const std::vector<std::string>& schemes, ScenarioRecord& record) {
  // The service pool is fixed at the largest requested thread count; the
  // sweep axis is offered load, not pool size.
  const std::uint32_t pool =
      *std::max_element(options.thread_counts.begin(), options.thread_counts.end());
  const std::uint64_t slo_p99 =
      options.slo_p99_ns != 0 ? options.slo_p99_ns : kDefaultSloP99Ns;
  const std::uint64_t slo_p999 =
      options.slo_p999_ns != 0 ? options.slo_p999_ns : kDefaultSloP999Ns;

  for (const auto& scheme : schemes) {
    // Calibration: mean service time under a single-threaded closed loop
    // (no queueing, no contention), from which the pool's ideal capacity is
    // extrapolated. Deliberately per scheme: "90% of capacity" should mean
    // 90% of *this scheme's* capacity, so every panel compares schemes at
    // equal relative stress.
    double capacity_ops = 0.0;
    {
      auto lock = MakeLock(scheme);
      auto workload = std::make_unique<ZipfHashMapWorkload>();
      RunOptions calibration;
      calibration.threads = 1;
      calibration.total_ops = std::min<std::uint64_t>(options.total_ops, 4000);
      calibration.write_ratio = kServiceWriteRatio;
      calibration.seed = DeriveCellSeed(options.seed, 0);
      // Its own trace run: the cost clocks restart here, so sharing a run
      // with a load panel would put two timelines on one lane.
      BeginTraceRun(scheme + " calibration", 0.0, calibration.threads);
      const RunResult result =
          RunBenchmark(calibration, *lock, [&](std::uint32_t, Rng& rng, bool is_write) {
            workload->Op(*lock, rng, is_write);
          });
      const double mean_service_seconds =
          result.modeled_seconds / static_cast<double>(calibration.total_ops);
      capacity_ops = static_cast<double>(pool) / mean_service_seconds;
    }

    for (const double load : spec.panel_values) {
      const double panel = load * 100.0;  // displayed as % of capacity
      auto lock = MakeLock(scheme);
      auto workload = std::make_unique<ZipfHashMapWorkload>();
      ServiceRunOptions run;
      run.threads = pool;
      run.total_ops = options.total_ops;
      run.arrival_rate_ops = load * capacity_ops;
      run.write_ratio = kServiceWriteRatio;
      run.seed = DeriveCellSeed(options.seed, static_cast<std::uint32_t>(panel));
      run.slo_p99_ns = slo_p99;
      run.slo_p999_ns = slo_p999;
      BeginTraceRun(scheme, panel, pool);
      AddRun(record, lock->name(), panel,
             RunServiceBenchmark(run, *lock, [&](std::uint32_t, Rng& rng, bool is_write) {
               workload->Op(*lock, rng, is_write);
             }));
    }
  }
}

}  // namespace

ScenarioSpec ServiceScenario() {
  ScenarioSpec spec;
  spec.name = "service";
  spec.figure = "Service study";
  spec.title =
      "Open-loop service: Poisson arrivals, Zipf keys, sojourn-time SLO";
  spec.panel_label = "% of modeled capacity offered";
  spec.panel_values = {0.30, 0.60, 0.90, 1.20};
  spec.default_schemes = {"rwle-opt", "brlock", "rwl", "sgl"};
  spec.default_ops = 6000;
  spec.full_ops = 60000;
  spec.run = RunServiceSweep;
  return spec;
}

}  // namespace rwle
