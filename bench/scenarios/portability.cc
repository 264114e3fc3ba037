// Portability matrix: scheme x hardware profile (src/htm/hw_profile.h),
// measuring how each elision scheme's safety story holds up when the TM
// facility's semantics move away from the paper's POWER8 model.
//
// The workload is a pair-invariant check: every write section increments
// both halves of one pair, so "a[p] == b[p]" holds in every committed
// state. Readers scan with two deliberate hazard windows:
//
//   - The first 8 pairs (16 lines) are compared half-against-half in
//     arrival order, which under the limited-tracking profiles exhausts the
//     K=16 tracked read lines.
//   - The last 4 pairs are then read *untracked* (lines 17+) in snapshot
//     style: all a halves first, a spacer re-scan of the tracked pairs, and
//     only then the b halves. A writer committing one of those pairs inside
//     the spacer produces a torn comparison that conflict detection never
//     saw -- the FORTH limited-tracking hazard, wide enough to hit at wall
//     clock.
//
// A quarter of the writes are "big": they drag >64 spill lines into the
// write set between the two halves of the pair. Under full tracking that is
// a persistent capacity abort, so the writer lands on the serial fallback
// with the pair torn for the whole spill phase -- exactly the window in
// which a lazily-subscribing HLE reader runs as a zombie over torn state
// (Dice et al.; the lazy-sub litmus pins the same schedule down
// deterministically). Under limited tracking capacity aborts do not fire
// and big writes stay speculative.
//
// Two counters per cell (the JSON "portability" block, PortabilitySnapshot):
//
//   torn_observed   -- section executions that saw a torn pair, including
//                      executions that later aborted (zombie windows count).
//   torn_committed  -- sections whose final (committed) execution saw one.
//
// Expected shape: "rwle" stays clean on both counters across every profile
// -- its uninstrumented readers are protected by quiescence, not by reader
// tracking, so neither hazard axis applies -- while "hle" picks up
// torn_observed under lazy subscription and torn_committed under limited
// tracking. power8 is clean by construction: full tracking dooms a reader
// before its next transactional load can return a torn half, and eager
// subscription aborts it before it can run over a serial writer's state.
// PORTABILITY.md walks the committed matrix.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/scenarios/scenario.h"
#include "src/common/rng.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/hw_profile.h"
#include "src/memory/tx_var.h"

namespace rwle {
namespace {

// 12 pairs = 24 distinct lines per scan: past the limited profiles'
// 16 tracked read lines, comfortably inside the 64-line full capacity.
constexpr std::size_t kPairs = 12;
// Pairs compared in arrival order; 2 * kTrackedPairs fills the limited
// profiles' tracked-line budget, leaving the snapshot pairs untracked.
constexpr std::size_t kTrackedPairs = 8;
// Spill lines a big write touches between the two halves of its pair;
// 2 + kSpillLines must exceed HtmConfig::max_write_lines (64) so the
// attempt is a persistent capacity abort under full tracking.
constexpr std::size_t kSpillLines = 72;
// Tracked-pair re-scan passes between the snapshot reads: widens the
// untracked torn window without growing the read footprint.
constexpr std::size_t kSpacerPasses = 4;

constexpr double kWriteRatio = 0.2;
// Fraction of writes that are big (spill past capacity -> serial fallback).
constexpr double kBigWriteRatio = 0.25;

struct alignas(kCacheLineBytes) PaddedCell {
  TxVar<std::uint64_t> v;
};

class PairTable {
 public:
  PairTable() : a_(kPairs), b_(kPairs), spill_(kSpillLines) {}

  // Increments both halves of `pair`; a big write drags the spill lines
  // into the write set between the halves, so the section is torn for the
  // whole spill phase (and past write capacity under full tracking).
  void WritePair(std::size_t pair, bool big) {
    a_[pair].v.Store(a_[pair].v.Load() + 1);
    if (big) {
      for (auto& cell : spill_) {
        cell.v.Store(cell.v.Load() + 1);
      }
    }
    b_[pair].v.Store(b_[pair].v.Load() + 1);
  }

  // Returns true if any comparison saw unequal halves. Scan order is the
  // point (see the file comment): tracked pairs first, then the snapshot
  // pairs' a halves, a spacer, and finally their b halves.
  bool ScanTorn() {
    bool torn = false;
    for (std::size_t pair = 0; pair < kTrackedPairs; ++pair) {
      if (a_[pair].v.Load() != b_[pair].v.Load()) {
        torn = true;
      }
    }
    std::array<std::uint64_t, kPairs - kTrackedPairs> snap;
    for (std::size_t pair = kTrackedPairs; pair < kPairs; ++pair) {
      snap[pair - kTrackedPairs] = a_[pair].v.Load();
    }
    std::uint64_t spacer = 0;
    for (std::size_t pass = 0; pass < kSpacerPasses; ++pass) {
      for (std::size_t pair = 0; pair < kTrackedPairs; ++pair) {
        spacer += a_[pair].v.Load() + b_[pair].v.Load();
      }
    }
    (void)spacer;
    for (std::size_t pair = kTrackedPairs; pair < kPairs; ++pair) {
      if (b_[pair].v.Load() != snap[pair - kTrackedPairs]) {
        torn = true;
      }
    }
    return torn;
  }

 private:
  std::vector<PaddedCell> a_;
  std::vector<PaddedCell> b_;
  std::vector<PaddedCell> spill_;
};

// Restores the runtime's HtmConfig on scope exit, so a profile's config
// (lazy subscription, limited tracking, ...) cannot leak into scenarios run
// after this one even if the sweep unwinds via an exception.
class ScopedHtmConfig {
 public:
  explicit ScopedHtmConfig(HtmRuntime& runtime)
      : runtime_(runtime), saved_(runtime.config()) {}
  ~ScopedHtmConfig() { runtime_.set_config(saved_); }
  ScopedHtmConfig(const ScopedHtmConfig&) = delete;
  ScopedHtmConfig& operator=(const ScopedHtmConfig&) = delete;

 private:
  HtmRuntime& runtime_;
  const HtmConfig saved_;
};

void RunPortabilitySweep(const ScenarioSpec& spec, const BenchOptions& options,
                         const std::vector<std::string>& schemes, ScenarioRecord& record) {
  HtmRuntime& runtime = HtmRuntime::Global();
  const ScopedHtmConfig restore_config(runtime);
  const std::vector<HwProfile>& profiles = AllHwProfiles();

  for (const double panel : spec.panel_values) {
    const auto index = static_cast<std::size_t>(panel);
    if (index >= profiles.size()) {
      std::fprintf(stderr, "portability: panel %zu exceeds the profile table\n",
                    index);
      continue;
    }
    const HwProfile& profile = profiles[index];
    for (const auto& scheme : schemes) {
      for (const std::uint32_t threads : options.thread_counts) {
        // No transaction is live between cells, so swapping the TM model
        // here is legal (set_config checks); restored after the sweep.
        runtime.set_config(profile.config);
        std::atomic<std::uint64_t> torn_observed{0};
        std::atomic<std::uint64_t> torn_committed{0};
        RunResult& result = RunCell(
            options,
            {scheme + "@" + profile.name, static_cast<double>(index), kWriteRatio, threads},
            record, [&] { return MakeLock(scheme); },
            [](ElidableLock&) { return std::make_unique<PairTable>(); },
            [&](PairTable& table, ElidableLock& lock, std::uint32_t, Rng& rng,
                bool is_write) {
              if (is_write) {
                const std::size_t pair = rng.NextBelow(kPairs);
                const bool big = rng.NextBool(kBigWriteRatio);
                lock.Write([&] { table.WritePair(pair, big); });
                return;
              }
              // `torn` is plain host state, invisible to the simulated
              // fabric: writes from aborted (zombie) executions survive,
              // which is what torn_observed is for. The value left by the
              // *last* execution is the committed one.
              bool torn = false;
              lock.Read([&] {
                torn = table.ScanTorn();
                if (torn) {
                  // Relaxed: pure counter; nothing is published with it
                  // and the final reads happen after thread join.
                  torn_observed.fetch_add(1, std::memory_order_relaxed);
                }
              });
              if (torn) {
                // Relaxed: same counter discipline as above.
                torn_committed.fetch_add(1, std::memory_order_relaxed);
              }
            });
        result.portability.hw_profile = profile.name;
        // Relaxed: the workers that incremented these counters were joined
        // inside RunBenchmark, which is the synchronization point.
        result.portability.torn_observed =
            torn_observed.load(std::memory_order_relaxed);
        result.portability.torn_committed =
            // Relaxed: same post-join read as above.
            torn_committed.load(std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace

ScenarioSpec PortabilityScenario() {
  ScenarioSpec spec;
  spec.name = "portability";
  spec.figure = "Portability matrix";
  spec.title =
      "Portability matrix: scheme x hardware profile, pair-scan torn-read "
      "counters (see PORTABILITY.md)";
  spec.panel_label = "hardware profile index (see --list-hw)";
  // One panel per entry of AllHwProfiles(), in table order:
  // power8, lazy-hle, committer-wins, limited-k, lazy-limited.
  spec.panel_values = {0, 1, 2, 3, 4};
  spec.default_schemes = {"hle", "rwle"};
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.run = RunPortabilitySweep;
  return spec;
}

}  // namespace rwle
