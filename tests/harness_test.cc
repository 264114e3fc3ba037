// Tests for the benchmark harness, the cost meter / modeled-time formula,
// and the figure report renderer.
#include "src/harness/bench_harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>

#include "src/common/thread_registry.h"
#include "src/harness/figure_report.h"
#include "src/locks/lock_factory.h"
#include "src/memory/tx_var.h"
#include "src/stats/cost_meter.h"

namespace rwle {
namespace {

TEST(CostMeterTest, BucketsFollowSerialScopes) {
  ScopedThreadSlot slot;
  CostMeter& meter = CostMeter::Global();
  meter.Reset();
  meter.set_contention_factor(4);

  meter.Charge(10);  // parallel
  {
    SerialSectionScope writers(SerialScope::kWriters);
    meter.Charge(20);
    {
      SerialSectionScope global(SerialScope::kGlobal);
      meter.Charge(30);
    }
    meter.Charge(5);
  }
  meter.ChargeContended(3);  // 3 * factor 4 = 12, parallel

  const CostMeter::Totals totals = meter.Aggregate();
  EXPECT_EQ(totals.parallel, 22u);
  EXPECT_EQ(totals.writer_serial, 25u);
  EXPECT_EQ(totals.global_serial, 30u);
  meter.Reset();
  meter.set_contention_factor(1);
}

TEST(CostMeterTest, ModeledSecondsFormula) {
  CostMeter::Totals totals;
  totals.parallel = 8'000'000'000ull;  // 8s of parallel cycles
  totals.writer_serial = 1'000'000'000ull;
  totals.global_serial = 500'000'000ull;

  // 1 thread: 0.5 + max(1, 8) = 8.5s
  EXPECT_NEAR(CostMeter::ModeledSeconds(totals, 1), 8.5, 1e-9);
  // 8 threads: 0.5 + max(1, 1) = 1.5s
  EXPECT_NEAR(CostMeter::ModeledSeconds(totals, 8), 1.5, 1e-9);
  // 64 threads: writer-serial dominates: 0.5 + max(1, 0.125) = 1.5s
  EXPECT_NEAR(CostMeter::ModeledSeconds(totals, 64), 1.5, 1e-9);
}

TEST(BenchHarnessTest, RunsExactlyTotalOps) {
  auto lock = MakeLock("sgl");
  std::atomic<std::uint64_t> executed{0};
  RunOptions options;
  options.threads = 3;
  options.total_ops = 1000;  // not divisible by 3: remainder must be spread
  options.write_ratio = 0.5;

  const RunResult result =
      RunBenchmark(options, *lock, [&](std::uint32_t, Rng&, bool is_write) {
        executed.fetch_add(1);
        if (is_write) {
          lock->Write([] {});
        } else {
          lock->Read([] {});
        }
      });

  EXPECT_EQ(executed.load(), 1000u);
  EXPECT_EQ(result.total_ops, 1000u);
  EXPECT_EQ(result.threads, 3u);
  EXPECT_EQ(result.stats.TotalCommits(), 1000u);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.modeled_seconds, 0.0);
}

TEST(BenchHarnessTest, WriteRatioIsRespected) {
  auto lock = MakeLock("sgl");
  std::atomic<std::uint64_t> writes{0};
  RunOptions options;
  options.threads = 2;
  options.total_ops = 4000;
  options.write_ratio = 0.25;

  RunBenchmark(options, *lock, [&](std::uint32_t, Rng&, bool is_write) {
    if (is_write) {
      writes.fetch_add(1);
    }
  });
  const double ratio = static_cast<double>(writes.load()) / 4000.0;
  EXPECT_NEAR(ratio, 0.25, 0.05);
}

TEST(BenchHarnessTest, DeterministicOpSequencePerSeed) {
  auto lock = MakeLock("sgl");
  RunOptions options;
  options.threads = 2;
  options.total_ops = 200;
  options.seed = 99;

  std::atomic<std::uint64_t> checksum_a{0};
  RunBenchmark(options, *lock, [&](std::uint32_t, Rng& rng, bool) {
    checksum_a.fetch_add(rng.Next() & 0xFFFF);
  });
  std::atomic<std::uint64_t> checksum_b{0};
  RunBenchmark(options, *lock, [&](std::uint32_t, Rng& rng, bool) {
    checksum_b.fetch_add(rng.Next() & 0xFFFF);
  });
  EXPECT_EQ(checksum_a.load(), checksum_b.load());
}

TEST(BenchHarnessTest, RwLeWorkGetsRealStats) {
  auto lock = MakeLock("rwle-opt");
  TxVar<std::uint64_t> cell(0);
  RunOptions options;
  options.threads = 2;
  options.total_ops = 500;
  options.write_ratio = 0.2;

  const RunResult result =
      RunBenchmark(options, *lock, [&](std::uint32_t, Rng&, bool is_write) {
        if (is_write) {
          lock->Write([&] { cell.Store(cell.Load() + 1); });
        } else {
          lock->Read([&] { (void)cell.Load(); });
        }
      });

  EXPECT_EQ(result.stats.TotalCommits(), 500u);
  EXPECT_GT(result.stats.commits[static_cast<int>(CommitPath::kUninstrumentedRead)], 0u);
  EXPECT_GT(result.cost.parallel, 0u);
}

// RunBenchmark snapshots the lock's latency registry into the result (and
// resets it first, so back-to-back runs do not bleed into each other).
TEST(BenchHarnessTest, PopulatesLatencyPercentiles) {
  auto lock = MakeLock("rwle-opt");
  TxVar<std::uint64_t> cell(0);
  RunOptions options;
  options.threads = 2;
  options.total_ops = 400;
  options.write_ratio = 0.25;

  const auto op = [&](std::uint32_t, Rng&, bool is_write) {
    if (is_write) {
      lock->Write([&] { cell.Store(cell.Load() + 1); });
    } else {
      lock->Read([&] { (void)cell.Load(); });
    }
  };
  const RunResult result = RunBenchmark(options, *lock, op);

  const LatencyStats& read = result.latency.op[static_cast<int>(OpKind::kRead)];
  const LatencyStats& write = result.latency.op[static_cast<int>(OpKind::kWrite)];
  EXPECT_EQ(read.count + write.count, 400u);
  EXPECT_GT(read.count, 0u);
  EXPECT_GT(write.count, 0u);
  EXPECT_GT(read.max, 0u);
  EXPECT_LE(read.p50, read.p90);
  EXPECT_LE(read.p90, read.p99);
  EXPECT_LE(read.p99, read.p999);
  EXPECT_LE(read.p999, read.max);
  EXPECT_LE(write.p50, write.p90);
  EXPECT_LE(write.p999, write.max);
  // Every recorded sample is attributed to some commit path.
  std::uint64_t by_path = 0;
  for (int path = 0; path < kCommitPathCount; ++path) {
    by_path += result.latency.by_path[static_cast<int>(OpKind::kRead)][path].count;
    by_path += result.latency.by_path[static_cast<int>(OpKind::kWrite)][path].count;
  }
  EXPECT_EQ(by_path, 400u);

  // A second run through the same lock starts from a clean registry.
  const RunResult again = RunBenchmark(options, *lock, op);
  EXPECT_EQ(again.latency.op[static_cast<int>(OpKind::kRead)].count +
                again.latency.op[static_cast<int>(OpKind::kWrite)].count,
            400u);
}

// A record with just what RenderFigureReport reads from the manifest.
ScenarioRecord FigureRecord(std::string title, std::string panel_label) {
  ScenarioRecord record;
  record.manifest.title = std::move(title);
  record.manifest.panel_label = std::move(panel_label);
  return record;
}

TEST(FigureReportTest, RendersAllPanels) {
  ScenarioRecord record = FigureRecord("Figure X", "write locks %");
  RunResult result;
  result.threads = 2;
  result.total_ops = 100;
  result.wall_seconds = 0.01;
  result.modeled_seconds = 0.02;
  result.stats.commits[static_cast<int>(CommitPath::kHtm)] = 60;
  result.stats.commits[static_cast<int>(CommitPath::kSerial)] = 40;
  result.stats.aborts[static_cast<int>(AbortCategory::kHtmCapacity)] = 25;
  record.entries.push_back({"hle", 10, result});

  result.threads = 4;
  record.entries.push_back({"hle", 10, result});
  record.entries.push_back({"rwle-opt", 10, result});

  const std::string ascii = RenderFigureReport(record, false);
  EXPECT_NE(ascii.find("Figure X"), std::string::npos);
  EXPECT_NE(ascii.find("modeled time"), std::string::npos);
  EXPECT_NE(ascii.find("HTM capacity"), std::string::npos);
  EXPECT_NE(ascii.find("rwle-opt"), std::string::npos);

  const std::string csv = RenderFigureReport(record, true);
  EXPECT_NE(csv.find("threads,hle,rwle-opt"), std::string::npos);
}

// Golden-render test: the exact table layout is part of the tool's contract
// (scripts scrape the CSV form, and the ASCII form is pasted into reports).
// If a rendering change is intentional, update the expected strings here.
TEST(FigureReportTest, GoldenRender) {
  ScenarioRecord record = FigureRecord("Golden Figure", "% write locks");
  RunResult r;
  r.threads = 1;
  r.total_ops = 1000;
  r.wall_seconds = 0.5;
  r.modeled_seconds = 0.25;
  r.stats.commits[static_cast<int>(CommitPath::kHtm)] = 600;
  r.stats.commits[static_cast<int>(CommitPath::kRot)] = 200;
  r.stats.commits[static_cast<int>(CommitPath::kSerial)] = 100;
  r.stats.commits[static_cast<int>(CommitPath::kUninstrumentedRead)] = 100;
  r.stats.aborts[static_cast<int>(AbortCategory::kHtmTxConflict)] = 50;
  r.stats.aborts[static_cast<int>(AbortCategory::kHtmCapacity)] = 30;
  r.stats.aborts[static_cast<int>(AbortCategory::kRotConflict)] = 20;
  record.entries.push_back({"rwle-opt", 10, r});
  r.threads = 2;
  r.wall_seconds = 0.25;
  r.modeled_seconds = 0.125;
  record.entries.push_back({"rwle-opt", 10, r});
  r.threads = 1;
  r.wall_seconds = 0.75;
  r.modeled_seconds = 0.5;
  r.stats = ThreadStats{};
  r.stats.commits[static_cast<int>(CommitPath::kSerial)] = 1000;
  r.stats.aborts[static_cast<int>(AbortCategory::kHtmNonTx)] = 250;
  record.entries.push_back({"hle", 10, r});

  const std::string expected_ascii =
      "==== Golden Figure ====\n"
      "== 10 % write locks -- modeled time (ms) ==\n"
      "+----------+-----------+----------+\n"
      "| threads | rwle-opt | hle     |\n"
      "+----------+-----------+----------+\n"
      "| 1       | 250.000  | 500.000 |\n"
      "| 2       | 125.000  | -       |\n"
      "+----------+-----------+----------+\n"
      "== 10 % write locks -- wall time (ms) ==\n"
      "+----------+-----------+----------+\n"
      "| threads | rwle-opt | hle     |\n"
      "+----------+-----------+----------+\n"
      "| 1       | 500.000  | 750.000 |\n"
      "| 2       | 250.000  | -       |\n"
      "+----------+-----------+----------+\n"
      "== 10 % write locks -- aborts (% of attempts) ==\n"
      "+-----------+----------+---------+-------------+---------------+"
      "--------------+----------------+---------------+--------+\n"
      "| scheme   | threads | HTM tx | HTM non-tx | HTM capacity | "
      "Lock aborts | ROT conflicts | ROT capacity | total |\n"
      "+-----------+----------+---------+-------------+---------------+"
      "--------------+----------------+---------------+--------+\n"
      "| rwle-opt | 1       | 4.5%   | 0.0%       | 2.7%         | "
      "0.0%        | 1.8%          | 0.0%         | 9.1%  |\n"
      "| rwle-opt | 2       | 4.5%   | 0.0%       | 2.7%         | "
      "0.0%        | 1.8%          | 0.0%         | 9.1%  |\n"
      "| hle      | 1       | 0.0%   | 20.0%      | 0.0%         | "
      "0.0%        | 0.0%          | 0.0%         | 20.0% |\n"
      "+-----------+----------+---------+-------------+---------------+"
      "--------------+----------------+---------------+--------+\n"
      "== 10 % write locks -- commits (%) ==\n"
      "+-----------+----------+--------+--------+---------+-----------------+\n"
      "| scheme   | threads | HTM   | ROT   | SGL    | Uninstrumented |\n"
      "+-----------+----------+--------+--------+---------+-----------------+\n"
      "| rwle-opt | 1       | 60.0% | 20.0% | 10.0%  | 10.0%          |\n"
      "| rwle-opt | 2       | 60.0% | 20.0% | 10.0%  | 10.0%          |\n"
      "| hle      | 1       | 0.0%  | 0.0%  | 100.0% | 0.0%           |\n"
      "+-----------+----------+--------+--------+---------+-----------------+\n";
  EXPECT_EQ(RenderFigureReport(record, false), expected_ascii);

  const std::string expected_csv =
      "==== Golden Figure ====\n"
      "# 10 % write locks -- modeled time (ms)\n"
      "threads,rwle-opt,hle\n"
      "1,250.000,500.000\n"
      "2,125.000,-\n"
      "# 10 % write locks -- wall time (ms)\n"
      "threads,rwle-opt,hle\n"
      "1,500.000,750.000\n"
      "2,250.000,-\n"
      "# 10 % write locks -- aborts (% of attempts)\n"
      "scheme,threads,HTM tx,HTM non-tx,HTM capacity,Lock aborts,"
      "ROT conflicts,ROT capacity,total\n"
      "rwle-opt,1,4.5%,0.0%,2.7%,0.0%,1.8%,0.0%,9.1%\n"
      "rwle-opt,2,4.5%,0.0%,2.7%,0.0%,1.8%,0.0%,9.1%\n"
      "hle,1,0.0%,20.0%,0.0%,0.0%,0.0%,0.0%,20.0%\n"
      "# 10 % write locks -- commits (%)\n"
      "scheme,threads,HTM,ROT,SGL,Uninstrumented\n"
      "rwle-opt,1,60.0%,20.0%,10.0%,10.0%\n"
      "rwle-opt,2,60.0%,20.0%,10.0%,10.0%\n"
      "hle,1,0.0%,0.0%,100.0%,0.0%\n";
  EXPECT_EQ(RenderFigureReport(record, true), expected_csv);
}

TEST(StatsSnapshotTest, SnapshotMirrorsRawCounters) {
  ThreadStats stats;
  stats.commits[static_cast<int>(CommitPath::kHtm)] = 7;
  stats.commits[static_cast<int>(CommitPath::kUninstrumentedRead)] = 3;
  stats.aborts[static_cast<int>(AbortCategory::kLockAborts)] = 5;
  stats.aborts[static_cast<int>(AbortCategory::kRotCapacity)] = 2;

  const StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.commits.htm, 7u);
  EXPECT_EQ(snapshot.commits.uninstrumented_read, 3u);
  EXPECT_EQ(snapshot.commits.Total(), 10u);
  EXPECT_EQ(snapshot.aborts.lock_aborts, 5u);
  EXPECT_EQ(snapshot.aborts.rot_capacity, 2u);
  EXPECT_EQ(snapshot.aborts.Total(), 7u);
  EXPECT_EQ(snapshot.TotalAttempts(), 17u);

  // Entries() must walk the legend order used by the figure panels.
  const auto commit_entries = snapshot.commits.Entries();
  EXPECT_STREQ(commit_entries[0].label, "HTM");
  EXPECT_STREQ(commit_entries[0].key, "htm");
  EXPECT_EQ(commit_entries[0].count, 7u);
  const auto abort_entries = snapshot.aborts.Entries();
  EXPECT_STREQ(abort_entries[3].label, "Lock aborts");
  EXPECT_STREQ(abort_entries[3].key, "lock_aborts");
  EXPECT_EQ(abort_entries[3].count, 5u);
}

// --- Open-loop service engine (RunServiceBenchmark) ------------------------

namespace service_test {

ServiceRunOptions BaseOptions() {
  ServiceRunOptions options;
  options.threads = 3;
  options.total_ops = 600;
  options.arrival_rate_ops = 5e6;
  options.write_ratio = 0.2;
  options.seed = 42;
  return options;
}

OpFn CounterOp(ElidableLock& lock, TxVar<std::uint64_t>& cell) {
  return [&](std::uint32_t, Rng&, bool is_write) {
    if (is_write) {
      lock.Write([&] { cell.Store(cell.Load() + 1); });
    } else {
      lock.Read([&] { (void)cell.Load(); });
    }
  };
}

}  // namespace service_test

TEST(ServiceBenchmarkTest, BooksBalanceAndSnapshotIsCoherent) {
  auto lock = MakeLock("rwle-opt");
  TxVar<std::uint64_t> cell(0);
  const ServiceRunOptions options = service_test::BaseOptions();

  const RunResult result =
      RunServiceBenchmark(options, *lock, service_test::CounterOp(*lock, cell));

  // Every arrival is served exactly once, through the lock.
  EXPECT_EQ(result.service.arrivals, options.total_ops);
  EXPECT_EQ(result.service.completions, options.total_ops);
  EXPECT_EQ(result.stats.TotalCommits(), options.total_ops);

  // The modeled clock is the virtual horizon, so ModeledThroughput() is the
  // achieved rate.
  EXPECT_GT(result.service.horizon_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.modeled_seconds, result.service.horizon_seconds);
  EXPECT_NEAR(result.ModeledThroughput(), result.service.achieved_rate_ops, 1e-6);
  EXPECT_DOUBLE_EQ(result.service.offered_rate_ops, options.arrival_rate_ops);

  // Percentile ladder is monotone and max dominates.
  EXPECT_GT(result.service.sojourn_mean_ns, 0.0);
  EXPECT_LE(result.service.sojourn_p50_ns, result.service.sojourn_p90_ns);
  EXPECT_LE(result.service.sojourn_p90_ns, result.service.sojourn_p99_ns);
  EXPECT_LE(result.service.sojourn_p99_ns, result.service.sojourn_p999_ns);
  EXPECT_LE(result.service.sojourn_p999_ns, result.service.sojourn_max_ns);

  // The lock overload still snapshots per-op latency alongside sojourns.
  const LatencyStats& read = result.latency.op[static_cast<int>(OpKind::kRead)];
  const LatencyStats& write = result.latency.op[static_cast<int>(OpKind::kWrite)];
  EXPECT_EQ(read.count + write.count, options.total_ops);
}

TEST(ServiceBenchmarkTest, SingleServerRunIsDeterministic) {
  // One server: no OS-scheduling influence on the modeled axis, so the whole
  // snapshot must replay bit-identically for a fixed seed.
  ServiceRunOptions options = service_test::BaseOptions();
  options.threads = 1;
  options.total_ops = 400;

  ServiceSnapshot snapshots[2];
  for (auto& snapshot : snapshots) {
    auto lock = MakeLock("rwle-opt");
    TxVar<std::uint64_t> cell(0);
    snapshot =
        RunServiceBenchmark(options, *lock, service_test::CounterOp(*lock, cell))
            .service;
  }
  EXPECT_DOUBLE_EQ(snapshots[0].horizon_seconds, snapshots[1].horizon_seconds);
  EXPECT_DOUBLE_EQ(snapshots[0].sojourn_mean_ns, snapshots[1].sojourn_mean_ns);
  EXPECT_EQ(snapshots[0].sojourn_p99_ns, snapshots[1].sojourn_p99_ns);
  EXPECT_EQ(snapshots[0].sojourn_max_ns, snapshots[1].sojourn_max_ns);
  EXPECT_EQ(snapshots[0].queue_delay_max_ns, snapshots[1].queue_delay_max_ns);
}

TEST(ServiceBenchmarkTest, LightLoadBarelyQueuesAndOverloadSaturates) {
  // Far below capacity the servers idle between arrivals: queueing delay is
  // (near) zero and the achieved rate tracks the offered rate. Far above
  // capacity the achieved rate pins at capacity, well short of offered.
  auto light_lock = MakeLock("rwle-opt");
  TxVar<std::uint64_t> light_cell(0);
  ServiceRunOptions light = service_test::BaseOptions();
  light.arrival_rate_ops = 1e4;  // ~100us between arrivals vs ~100ns service
  const ServiceSnapshot light_service =
      RunServiceBenchmark(light, *light_lock,
                          service_test::CounterOp(*light_lock, light_cell))
          .service;
  EXPECT_LT(light_service.queue_delay_mean_ns, 10.0);
  EXPECT_NEAR(light_service.achieved_rate_ops / light_service.offered_rate_ops,
              1.0, 0.15);

  auto over_lock = MakeLock("rwle-opt");
  TxVar<std::uint64_t> over_cell(0);
  ServiceRunOptions over = service_test::BaseOptions();
  over.arrival_rate_ops = 1e9;  // 1 op/ns offered: far beyond capacity
  over.slo_p99_ns = 1;          // unmeetable target
  over.slo_p999_ns = 1;
  const ServiceSnapshot over_service =
      RunServiceBenchmark(over, *over_lock,
                          service_test::CounterOp(*over_lock, over_cell))
          .service;
  EXPECT_LT(over_service.achieved_rate_ops, over_service.offered_rate_ops / 2);
  EXPECT_GT(over_service.queue_delay_mean_ns, light_service.queue_delay_mean_ns);
  EXPECT_FALSE(over_service.slo_met);
  EXPECT_TRUE(light_service.slo_met);  // both targets 0 = no target
}

}  // namespace
}  // namespace rwle
