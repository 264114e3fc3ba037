// Tests for the trace subsystem: the per-thread event ring, the
// MemoryTraceSink lane/run bookkeeping, the HDR latency histogram against a
// brute-force sorted reference, the Chrome trace_event exporter against a
// checked-in golden file, and the process sink that every lock-level emit
// site reaches. Every test that installs a sink does so through a
// ScopedTraceSink, so no later test emits into a destroyed one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_registry.h"
#include "src/harness/bench_harness.h"
#include "src/htm/abort.h"
#include "src/htm/htm_runtime.h"
#include "src/locks/bravo_lock.h"
#include "src/locks/lock_factory.h"
#include "src/memory/tx_var.h"
#include "src/rwle/path_policy.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"
#include "src/trace/latency_histogram.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_export.h"
#include "src/trace/trace_ring.h"
#include "src/trace/trace_sink.h"

namespace rwle {
namespace {

TraceEvent MakeEvent(std::uint64_t timestamp, TraceEventType type,
                     std::uint8_t slot = 0, std::uint8_t detail_a = 0,
                     std::uint8_t detail_b = 0, std::uint64_t arg = 0) {
  TraceEvent event;
  event.timestamp = timestamp;
  event.type = type;
  event.thread_slot = slot;
  event.detail_a = detail_a;
  event.detail_b = detail_b;
  event.arg = arg;
  return event;
}

// ---------------------------------------------------------------------------
// TraceRing.
// ---------------------------------------------------------------------------

TEST(TraceRingTest, OverwritesOldestOnWrap) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.Push(MakeEvent(i, TraceEventType::kTxBegin));
  }
  EXPECT_EQ(ring.pushed(), 20u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);

  // The retained window is the *newest* 8 events, visited oldest to newest.
  std::vector<std::uint64_t> seen;
  ring.ForEach([&](const TraceEvent& event) { seen.push_back(event.timestamp); });
  const std::vector<std::uint64_t> expected = {12, 13, 14, 15, 16, 17, 18, 19};
  EXPECT_EQ(seen, expected);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  TraceRing ring(5);  // rounds to 8; no drops until the 9th push
  for (int i = 0; i < 8; ++i) {
    ring.Push(MakeEvent(static_cast<std::uint64_t>(i), TraceEventType::kTxBegin));
  }
  EXPECT_EQ(ring.dropped(), 0u);
  ring.Push(MakeEvent(8, TraceEventType::kTxBegin));
  EXPECT_EQ(ring.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// MemoryTraceSink.
// ---------------------------------------------------------------------------

TEST(MemoryTraceSinkTest, StampsSequenceAndRunPerLane) {
  MemoryTraceSink sink(16);
  sink.set_scenario("unit");
  EXPECT_EQ(sink.BeginRun("sgl", 10.0, 2), 0u);
  sink.Emit(MakeEvent(100, TraceEventType::kTxBegin, /*slot=*/3));
  sink.Emit(MakeEvent(200, TraceEventType::kTxCommit, /*slot=*/3));
  sink.Emit(MakeEvent(150, TraceEventType::kTxBegin, /*slot=*/5));
  EXPECT_EQ(sink.BeginRun("sgl", 10.0, 4), 1u);
  sink.Emit(MakeEvent(50, TraceEventType::kTxBegin, /*slot=*/3));

  EXPECT_TRUE(sink.HasLane(3));
  EXPECT_TRUE(sink.HasLane(5));
  EXPECT_FALSE(sink.HasLane(0));
  EXPECT_EQ(sink.TotalEvents(), 4u);
  EXPECT_EQ(sink.DroppedEvents(), 0u);
  ASSERT_EQ(sink.runs().size(), 2u);
  EXPECT_EQ(sink.runs()[0].scenario, "unit");
  EXPECT_EQ(sink.runs()[1].threads, 4u);

  // Sequence numbers count per lane; run ids stamp the run that was current
  // at emit time.
  std::vector<std::uint32_t> seqs;
  std::vector<std::uint32_t> runs;
  sink.ForEachLaneEvent(3, [&](const TraceEvent& event) {
    seqs.push_back(event.seq);
    runs.push_back(event.run_id);
  });
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(runs, (std::vector<std::uint32_t>{0, 0, 1}));
  sink.ForEachLaneEvent(5, [&](const TraceEvent& event) {
    EXPECT_EQ(event.seq, 0u);
    EXPECT_EQ(event.run_id, 0u);
  });
}

// Threads hammering a traced lock must each see a private, ordered lane:
// sequence numbers dense and timestamps non-decreasing within every lane.
TEST(MemoryTraceSinkTest, ConcurrentEmitsKeepLanesOrdered) {
  MemoryTraceSink sink;
  const ScopedTraceSink tracing(sink);
  sink.BeginRun("rwle-opt", 10.0, 4);
  auto lock = MakeLock("rwle-opt");
  ASSERT_NE(lock, nullptr);

  RunOptions run;
  run.threads = 4;
  run.total_ops = 2000;
  run.write_ratio = 0.3;
  // A fabric cell: elided writers run concurrently, so a plain counter
  // would race.
  TxVar<std::uint64_t> cell(0);
  RunBenchmark(run, *lock, [&](std::uint32_t, Rng&, bool is_write) {
    if (is_write) {
      lock->Write([&] { cell.Store(cell.Load() + 1); });
    } else {
      lock->Read([&] { (void)cell.Load(); });
    }
  });

  std::uint32_t lanes = 0;
  std::uint64_t events = 0;
  for (std::uint32_t slot = 0; slot < kMaxThreads; ++slot) {
    if (!sink.HasLane(slot)) {
      continue;
    }
    ++lanes;
    std::uint32_t expected_seq = 0;
    std::uint64_t last_ts = 0;
    sink.ForEachLaneEvent(slot, [&](const TraceEvent& event) {
      ++events;
      EXPECT_EQ(event.seq, expected_seq++) << "slot " << slot;
      EXPECT_GE(event.timestamp, last_ts) << "slot " << slot;
      last_ts = event.timestamp;
      EXPECT_EQ(event.thread_slot, slot);
    });
  }
  EXPECT_EQ(lanes, 4u);
  EXPECT_GE(events, 2000u);  // at least one kOpEnd per op
}

// ---------------------------------------------------------------------------
// LatencyHistogram.
// ---------------------------------------------------------------------------

// Exact order statistic with the histogram's rank convention: smallest
// value v such that at least round(p/100 * count) samples are <= v.
std::uint64_t ExactPercentile(const std::vector<std::uint64_t>& sorted, double p) {
  std::uint64_t rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(sorted.size()) + 0.5);
  if (rank == 0) {
    rank = 1;
  }
  if (rank > sorted.size()) {
    rank = sorted.size();
  }
  return sorted[rank - 1];
}

TEST(LatencyHistogramTest, PercentilesTrackBruteForceWithinBucketError) {
  LatencyHistogram hist;
  std::vector<std::uint64_t> values;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    // xorshift values spread across ~6 decades, like modeled latencies.
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const std::uint64_t value = 1 + (state % (1ull << (state % 21)));
    hist.Record(value);
    values.push_back(value);
  }
  std::sort(values.begin(), values.end());

  EXPECT_EQ(hist.count(), values.size());
  EXPECT_EQ(hist.max(), values.back());
  for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    const std::uint64_t exact = ExactPercentile(values, p);
    const std::uint64_t approx = hist.ValueAtPercentile(p);
    EXPECT_GE(approx, exact) << "p" << p;
    // Bucket width is at most 1/16 of the value; allow one width plus one.
    EXPECT_LE(approx, exact + exact / 8 + 1) << "p" << p;
  }
  // Percentile curve must be monotone.
  EXPECT_LE(hist.ValueAtPercentile(50.0), hist.ValueAtPercentile(90.0));
  EXPECT_LE(hist.ValueAtPercentile(90.0), hist.ValueAtPercentile(99.0));
  EXPECT_LE(hist.ValueAtPercentile(99.0), hist.ValueAtPercentile(99.9));
  EXPECT_LE(hist.ValueAtPercentile(99.9), hist.max());
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram hist;
  for (std::uint64_t v = 0; v < 16; ++v) {
    hist.Record(v);
  }
  // The linear region stores values < 16 exactly.
  EXPECT_EQ(hist.ValueAtPercentile(50.0), 7u);
  EXPECT_EQ(hist.ValueAtPercentile(100.0), 15u);
  EXPECT_EQ(hist.max(), 15u);
}

TEST(LatencyHistogramTest, EmptySingleAndMergeBehave) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.ValueAtPercentile(99.0), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);

  LatencyHistogram single;
  single.Record(42);
  for (const double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_EQ(single.ValueAtPercentile(p), 42u) << "p" << p;
  }

  LatencyHistogram other;
  other.Record(1000);
  single.Merge(other);
  EXPECT_EQ(single.count(), 2u);
  EXPECT_EQ(single.max(), 1000u);
  EXPECT_EQ(single.sum(), 1042u);

  single.Reset();
  EXPECT_EQ(single.count(), 0u);
  EXPECT_EQ(single.max(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter, against the checked-in golden file. The input is a
// hand-built event stream covering every event type, two lanes and a run
// switch; the expected bytes live in tests/data/golden_trace.json (which CI
// additionally feeds through tools/trace_summarize.py --validate).
//
// To regenerate after an intentional exporter change:
//   RWLE_REGEN_GOLDEN=1 build/tests/trace_test
// ---------------------------------------------------------------------------

void EmitGoldenEvents(MemoryTraceSink& sink) {
  const auto htm = static_cast<std::uint8_t>(TxKind::kHtm);
  const auto rot = static_cast<std::uint8_t>(TxKind::kRot);
  sink.set_scenario("golden");
  sink.BeginRun("rwle-opt", 10.0, 2);  // run 0 -> pid 1
  // Lane 0: an aborted then a committed transaction, a quiescence barrier,
  // a path demotion, and the enclosing write operation.
  sink.Emit(MakeEvent(1000, TraceEventType::kTxBegin, 0, htm));
  sink.Emit(MakeEvent(1400, TraceEventType::kTxAbort, 0, htm,
                      static_cast<std::uint8_t>(AbortCause::kConflictTx)));
  sink.Emit(MakeEvent(1500, TraceEventType::kTxBegin, 0, htm));
  sink.Emit(MakeEvent(2100, TraceEventType::kTxCommit, 0, htm));
  sink.Emit(MakeEvent(2200, TraceEventType::kQuiesceBegin, 0, /*detail_a=*/1));
  sink.Emit(MakeEvent(2500, TraceEventType::kQuiesceEnd, 0, /*detail_a=*/1));
  sink.Emit(MakeEvent(2600, TraceEventType::kPathTransition, 0,
                      static_cast<std::uint8_t>(WritePath::kHtm),
                      static_cast<std::uint8_t>(WritePath::kRot)));
  sink.Emit(MakeEvent(2700, TraceEventType::kOpEnd, 0,
                      static_cast<std::uint8_t>(OpKind::kWrite),
                      static_cast<std::uint8_t>(CommitPath::kHtm),
                      /*arg=*/1800));
  // Lane 1: a reader stall, suspend/resume, and a read operation.
  sink.Emit(MakeEvent(1200, TraceEventType::kReaderBlockBegin, 1));
  sink.Emit(MakeEvent(1450, TraceEventType::kReaderBlockEnd, 1));
  sink.Emit(MakeEvent(1600, TraceEventType::kTxSuspend, 1, htm));
  sink.Emit(MakeEvent(1700, TraceEventType::kTxResume, 1, htm));
  sink.Emit(MakeEvent(1800, TraceEventType::kOpEnd, 1,
                      static_cast<std::uint8_t>(OpKind::kRead),
                      static_cast<std::uint8_t>(CommitPath::kUninstrumentedRead),
                      /*arg=*/600));
  // Run 1 (pid 2): modeled clocks restart; the lane must reset its pairing
  // state at the run switch. A ROT attempt this time.
  sink.BeginRun("rwle-opt", 10.0, 4);
  sink.Emit(MakeEvent(100, TraceEventType::kTxBegin, 0, rot));
  sink.Emit(MakeEvent(300, TraceEventType::kTxCommit, 0, rot));
}

TEST(ChromeTraceExportTest, MatchesGoldenFile) {
  MemoryTraceSink sink(64);
  EmitGoldenEvents(sink);
  std::ostringstream os;
  WriteChromeTrace(os, sink);
  const std::string actual = os.str();

  const std::string path = std::string(RWLE_TEST_DATA_DIR) + "/golden_trace.json";
  if (std::getenv("RWLE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing " << path
                            << " (run with RWLE_REGEN_GOLDEN=1 to create)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "exporter output diverged from the golden file; regenerate with "
         "RWLE_REGEN_GOLDEN=1 build/tests/trace_test if intentional";
}

TEST(ChromeTraceExportTest, ReportsUnpairedEndsAndWritesFile) {
  MemoryTraceSink sink(64);
  sink.BeginRun("sgl", 0.0, 1);
  // A commit with no open transaction (its begin was "lost to wrap").
  sink.Emit(MakeEvent(500, TraceEventType::kTxCommit, 0));
  std::ostringstream os;
  WriteChromeTrace(os, sink);
  EXPECT_NE(os.str().find("\"unpaired_span_ends\": 1"), std::string::npos);

  const std::string path = testing::TempDir() + "/rwle_trace_test.json";
  EXPECT_TRUE(WriteChromeTraceFile(path, sink));
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open());
}

// ---------------------------------------------------------------------------
// The process sink.
// ---------------------------------------------------------------------------

int Count(const std::vector<TraceEventType>& types, TraceEventType type) {
  return static_cast<int>(std::count(types.begin(), types.end(), type));
}

// The event types of `slot`'s lane, oldest first.
std::vector<TraceEventType> LaneTypes(const MemoryTraceSink& sink, std::uint32_t slot) {
  std::vector<TraceEventType> types;
  sink.ForEachLaneEvent(slot, [&](const TraceEvent& event) { types.push_back(event.type); });
  return types;
}

// Both retry budgets at 0: every write takes the non-speculative path.
LockOptions NoSpeculation() {
  LockOptions options;
  options.max_htm_retries = 0;
  options.max_rot_retries = 0;
  return options;
}

// Runs `ops` on the calling (registered) thread with a fresh sink installed;
// returns the event types of that thread's lane.
std::vector<TraceEventType> TraceOwnLane(const std::function<void()>& ops) {
  MemoryTraceSink sink(1024);
  const ScopedTraceSink tracing(sink);
  ops();
  return LaneTypes(sink, CurrentThreadSlot());
}

// A reader arrives while the calling (registered) thread holds `scheme`'s
// lock on the NS path; returns the event types of the reader's lane. The
// writer holds the lock until the reader's first event -- its stall --
// reached the sink.
std::vector<TraceEventType> TraceBlockedReader(const std::string& scheme) {
  auto lock = MakeLock(scheme, NoSpeculation());
  MemoryTraceSink sink(1024);
  const ScopedTraceSink tracing(sink);
  std::atomic<bool> writer_inside{false};
  std::atomic<std::uint32_t> reader_slot{kInvalidThreadSlot};
  std::thread reader([&] {
    ScopedThreadSlot slot;
    while (!writer_inside.load()) {
      std::this_thread::yield();
    }
    reader_slot.store(slot.slot());
    lock->Read([] {});
  });
  lock->Write([&] {
    writer_inside.store(true);
    while (reader_slot.load() == kInvalidThreadSlot || !sink.HasLane(reader_slot.load())) {
      std::this_thread::yield();
    }
  });
  reader.join();
  return LaneTypes(sink, reader_slot.load());
}

// Every emit site that lives in a lock rather than in the HTM runtime reaches
// the one process sink: kOpEnd from LockAdapter, path demotions from RW-LE
// and HLE, BRAVO bias arms and revocations from the standalone lock and the
// rwle+bravo drain, and reader stalls behind an NS writer through each
// reader entry protocol.
TEST(TracePlumbingTest, EveryLockEmitSiteReachesTheProcessSink) {
  ScopedThreadSlot slot;

  auto sgl = MakeLock("sgl");
  const auto op_ends = TraceOwnLane([&] {
    sgl->Write([] {});
    sgl->Read([] {});
  });
  EXPECT_EQ(Count(op_ends, TraceEventType::kOpEnd), 2);

  // HLE without retries goes straight to its serial path.
  auto hle = MakeLock("hle", NoSpeculation());
  const auto hle_types = TraceOwnLane([&] { hle->Write([] {}); });
  EXPECT_EQ(Count(hle_types, TraceEventType::kPathTransition), 1);

  // RW-LE without retries starts on the NS path, which is no transition; a
  // write past the HTM and ROT capacity demotes HTM -> ROT -> NS instead.
  struct alignas(kCacheLineBytes) PaddedCell {
    TxVar<std::uint64_t> v;
  };
  std::vector<PaddedCell> cells(2 * HtmRuntime::Global().config().max_write_lines);
  auto rwle = MakeLock("rwle-opt");
  const auto rwle_types = TraceOwnLane([&] {
    rwle->Write([&] {
      for (PaddedCell& cell : cells) {
        cell.v.Store(1);
      }
    });
  });
  EXPECT_EQ(Count(rwle_types, TraceEventType::kPathTransition), 2);

  // Standalone BRAVO: the first write revokes the initial reader bias, and
  // slow reads re-arm it once the inhibit window has passed.
  auto bravo = MakeLock("bravo");
  const BravoLock& bravo_lock = dynamic_cast<LockAdapter<BravoLock>&>(*bravo).lock();
  const auto bravo_types = TraceOwnLane([&] {
    bravo->Write([] {});
    for (int i = 0; i < 100000 && !bravo_lock.bias_armed(); ++i) {
      bravo->Read([] {});
    }
  });
  EXPECT_EQ(Count(bravo_types, TraceEventType::kBravoRevokeBegin), 1);
  EXPECT_EQ(Count(bravo_types, TraceEventType::kBravoRevokeEnd), 1);
  EXPECT_EQ(Count(bravo_types, TraceEventType::kBravoBiasArm), 1);

  // rwle+bravo: every NS write drains the distributed reader table.
  auto rwle_bravo = MakeLock("rwle+bravo", NoSpeculation());
  const auto drain_types = TraceOwnLane([&] { rwle_bravo->Write([] {}); });
  EXPECT_EQ(Count(drain_types, TraceEventType::kBravoRevokeBegin), 1);
  EXPECT_EQ(Count(drain_types, TraceEventType::kBravoRevokeEnd), 1);

  for (const char* scheme : {"rwle-opt", "rwle-fair", "rwle+bravo"}) {
    const auto reader_types = TraceBlockedReader(scheme);
    EXPECT_EQ(Count(reader_types, TraceEventType::kReaderBlockBegin), 1) << scheme;
    EXPECT_EQ(Count(reader_types, TraceEventType::kReaderBlockEnd), 1) << scheme;
    EXPECT_EQ(Count(reader_types, TraceEventType::kOpEnd), 1) << scheme;
  }
}

// Tracing only reads the cost clocks: the same single-threaded operations
// charge the same modeled cycles with the process sink installed or not.
TEST(TracePlumbingTest, TracingChargesNoModeledCycles) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(0);
  for (const char* scheme : {"rwle-opt", "hle", "sgl"}) {
    auto lock = MakeLock(scheme);
    const auto charged = [&] {
      const std::uint64_t start = CostMeter::Global().SlotCycles(slot.slot());
      for (int i = 0; i < 100; ++i) {
        lock->Write([&] { cell.Store(cell.Load() + 1); });
        lock->Read([&] { (void)cell.Load(); });
      }
      return CostMeter::Global().SlotCycles(slot.slot()) - start;
    };
    (void)charged();  // warm-up: first-touch state is not what this compares
    const std::uint64_t untraced = charged();
    MemoryTraceSink sink;
    const ScopedTraceSink tracing(sink);
    EXPECT_EQ(charged(), untraced) << scheme;
    EXPECT_GE(sink.TotalEvents(), 200u) << scheme;
  }
}

TEST(TracePlumbingTest, NullSinkIsANoOp) {
  // The tracing-off configuration: with no sink installed, EmitTraceEvent
  // must be callable from any thread, registered or not.
  EmitTraceEvent(TraceEventType::kTxBegin);
  auto lock = MakeLock("rwle-opt");
  ASSERT_NE(lock, nullptr);
  ScopedThreadSlot slot;
  lock->Write([] {});  // must not crash or emit anywhere
  SUCCEED();
}

}  // namespace
}  // namespace rwle
