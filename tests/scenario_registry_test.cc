// Registry invariants for the unified benchmark driver: every scenario
// registers exactly one well-formed spec, registration is idempotent, and
// a spec's run callable actually drives the full (panel x scheme x thread)
// grid into the record it is given.
#include "bench/scenarios/all_scenarios.h"

#include <gtest/gtest.h>

#include "bench/scenarios/driver.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/htm/htm_runtime.h"
#include "src/htm/hw_profile.h"
#include "src/locks/lock_factory.h"
#include "src/trace/trace_sink.h"

namespace rwle {
namespace {

const std::vector<std::string> kExpectedScenarios = {
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "ablation", "service", "fallback", "capacity", "portability"};

TEST(ScenarioRegistryTest, EveryScenarioRegistersExactlyOnce) {
  RegisterAllScenarios();
  RegisterAllScenarios();  // must be idempotent, not double-register

  const auto& specs = ScenarioRegistry::Global().All();
  ASSERT_EQ(specs.size(), kExpectedScenarios.size());

  // Paper order, and exactly one spec per name.
  EXPECT_EQ(ScenarioRegistry::Global().Names(), kExpectedScenarios);
  std::set<std::string> unique_names;
  for (const ScenarioSpec& spec : specs) {
    EXPECT_TRUE(unique_names.insert(spec.name).second)
        << "duplicate scenario " << spec.name;
  }
}

TEST(ScenarioRegistryTest, SpecsAreWellFormed) {
  RegisterAllScenarios();
  for (const ScenarioSpec& spec : ScenarioRegistry::Global().All()) {
    SCOPED_TRACE(spec.name);
    EXPECT_FALSE(spec.figure.empty());
    EXPECT_FALSE(spec.title.empty());
    EXPECT_FALSE(spec.panel_label.empty());
    EXPECT_FALSE(spec.panel_values.empty());
    for (const double panel : spec.panel_values) {
      if (spec.name == "portability") {
        // Panels are 0-based indices into the hardware-profile table.
        EXPECT_GE(panel, 0.0);
        EXPECT_LT(panel, static_cast<double>(AllHwProfiles().size()));
        continue;
      }
      EXPECT_GT(panel, 0.0);
      // Figure panels are write-ratio fractions (at most 1); the service
      // scenario's panel is offered load as a fraction of modeled capacity,
      // where the > 1 point is the deliberate overload panel; the capacity
      // scenario's panel is a written-lines footprint, bounded by a sane
      // multiple of the HTM write capacity.
      const double max_panel =
          spec.name == "service" ? 2.0 : spec.name == "capacity" ? 1024.0 : 1.0;
      EXPECT_LE(panel, max_panel);
    }
    EXPECT_GT(spec.default_ops, 0u);
    EXPECT_GE(spec.full_ops, spec.default_ops);
    EXPECT_TRUE(static_cast<bool>(spec.run));
  }
}

TEST(ScenarioRegistryTest, DefaultSchemesAreConstructible) {
  RegisterAllScenarios();
  for (const ScenarioSpec& spec : ScenarioRegistry::Global().All()) {
    if (spec.name == "ablation") {
      // Ablation "schemes" are design-knob case labels, not lock_factory
      // names; the scenario constructs its own locks per case.
      continue;
    }
    SCOPED_TRACE(spec.name);
    const std::vector<std::string> schemes =
        spec.default_schemes.empty() ? AllLockNames() : spec.default_schemes;
    for (const std::string& scheme : schemes) {
      if (scheme == "rwle-chop") {
        // A per-callsite ChoppedSection composition, not a factory scheme
        // (README scheme-grammar note); the capacity scenario's run
        // function handles the name itself.
        continue;
      }
      EXPECT_NE(MakeLock(scheme), nullptr) << scheme;
    }
  }
}

// Runs rwle_bench in-process on one scenario, scheme list and thread list
// at a tiny sweep size; returns its exit code.
int RunBenchMain(const std::string& scenario, const std::string& schemes,
                 const std::string& threads = "1") {
  std::vector<std::string> args = {"rwle_bench", "--scenario=" + scenario,
                                   "--schemes=" + schemes, "--threads=" + threads,
                                   "--ops=100"};
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return BenchMain(static_cast<int>(argv.size()), argv.data());
}

// A --schemes name a selected scenario cannot run fails the whole
// invocation before any run, instead of being skipped with a warning.
TEST(ScenarioRegistryTest, BenchMainRejectsSchemesTheScenarioCannotRun) {
  EXPECT_EQ(RunBenchMain("fig3", "rwle-bogus"), 1);
  EXPECT_EQ(RunBenchMain("fig3", "rwle-opt,bogus"), 1);
  EXPECT_EQ(RunBenchMain("ablation", "bogus"), 1);
  // Ablation case labels are not lock-factory schemes, and vice versa.
  EXPECT_EQ(RunBenchMain("ablation", "rwle-opt"), 1);
  EXPECT_EQ(RunBenchMain("fig3", "no-rot"), 1);
  // So does a thread count outside [1, kMaxThreads], instead of aborting
  // in the harness.
  EXPECT_EQ(RunBenchMain("fig3", "rwle-opt", "0"), 1);
  EXPECT_EQ(RunBenchMain("fig3", "rwle-opt", "2000"), 1);
}

TEST(ScenarioRegistryTest, BenchMainRunsValidSchemeNames) {
  EXPECT_EQ(RunBenchMain("fig3", "rwle-opt,rwle+bravo"), 0);
  EXPECT_EQ(RunBenchMain("ablation", "no-rot"), 0);
  EXPECT_EQ(RunBenchMain("capacity", "rwle-chop,hle"), 0);
}

TEST(ScenarioRegistryTest, FindIsExactMatchOnly) {
  RegisterAllScenarios();
  const ScenarioSpec* fig3 = ScenarioRegistry::Global().Find("fig3");
  ASSERT_NE(fig3, nullptr);
  EXPECT_EQ(fig3->figure, "Figure 3");
  EXPECT_EQ(ScenarioRegistry::Global().Find("fig"), nullptr);
  EXPECT_EQ(ScenarioRegistry::Global().Find("fig3 "), nullptr);
  EXPECT_EQ(ScenarioRegistry::Global().Find(""), nullptr);
}

TEST(ScenarioRegistryTest, PagingOnlyOnFig6) {
  RegisterAllScenarios();
  for (const ScenarioSpec& spec : ScenarioRegistry::Global().All()) {
    EXPECT_EQ(spec.enable_paging, spec.name == "fig6") << spec.name;
  }
}

TEST(ScenarioRegistryTest, RunDrivesFullGrid) {
  RegisterAllScenarios();
  const ScenarioSpec* spec = ScenarioRegistry::Global().Find("fig5");
  ASSERT_NE(spec, nullptr);

  BenchOptions options;
  options.thread_counts = {1, 2};
  options.total_ops = 300;
  options.seed = 7;
  const std::vector<std::string> schemes = {"sgl", "rwle-opt"};

  ScenarioRecord record;
  spec->run(*spec, options, schemes, record);

  // panels x schemes x thread counts, scheme-major within each panel.
  const std::size_t expected =
      spec->panel_values.size() * schemes.size() * options.thread_counts.size();
  ASSERT_EQ(record.entries.size(), expected);
  // Every run executes exactly total_ops critical sections.
  std::uint64_t total_commits = 0;
  for (const auto& entry : record.entries) {
    total_commits += entry.result.stats.TotalCommits();
  }
  EXPECT_EQ(total_commits, expected * options.total_ops);

  const auto& first = record.entries[0];
  EXPECT_EQ(first.scheme, "sgl");
  EXPECT_EQ(first.panel_value, spec->panel_values[0] * 100.0);
  EXPECT_EQ(first.result.threads, 1u);
  const auto& last = record.entries.back();
  EXPECT_EQ(last.scheme, "rwle-opt");
  EXPECT_EQ(last.panel_value, spec->panel_values.back() * 100.0);
  EXPECT_EQ(last.result.threads, 2u);
}

// Every cell starts from a fresh lock: two cells that differ only in their
// place in the sweep must record the same run. A BRAVO lock reused from the
// previous cell would start biased, with an inhibit-until stamp on a cost
// clock the new run has reset, and record no fast reads at all.
TEST(ScenarioRegistryTest, RepeatedCellsStartFromFreshLocks) {
  RegisterAllScenarios();
  const ScenarioSpec* spec = ScenarioRegistry::Global().Find("fallback");
  ASSERT_NE(spec, nullptr);

  BenchOptions options;
  options.thread_counts = {1, 1};
  options.total_ops = 4000;
  options.seed = 42;
  ScenarioRecord record;
  spec->run(*spec, options, {"bravo"}, record);

  ASSERT_EQ(record.entries.size(), spec->panel_values.size() * 2);
  for (std::size_t i = 0; i < record.entries.size(); i += 2) {
    const RunResult& first = record.entries[i].result;
    const RunResult& second = record.entries[i + 1].result;
    SCOPED_TRACE(record.entries[i].panel_value);
    EXPECT_EQ(first.modeled_seconds, second.modeled_seconds);
    for (int counter = 0; counter < kBravoCounterCount; ++counter) {
      EXPECT_EQ(first.stats.bravo[counter], second.stats.bravo[counter])
          << BravoCounterKey(static_cast<BravoCounter>(counter));
    }
  }
}

// A traced service sweep files every run under its own trace run,
// calibration included: the cost clocks restart at every run, so a
// calibration filed under a load panel's run would put two timelines on one
// lane, and the exported spans would end before their lane predecessors.
TEST(ScenarioRegistryTest, TracedServiceSweepKeepsLanesOrderedWithinRuns) {
  RegisterAllScenarios();
  const ScenarioSpec* spec = ScenarioRegistry::Global().Find("service");
  ASSERT_NE(spec, nullptr);

  BenchOptions options;
  options.thread_counts = {2};
  options.total_ops = 600;
  options.seed = 42;
  MemoryTraceSink sink;
  const ScopedTraceSink tracing(sink);
  sink.set_scenario(spec->name);
  ScenarioRecord record;
  spec->run(*spec, options, {"rwle-opt", "sgl"}, record);

  // Per scheme: one calibration run, then one run per load panel.
  EXPECT_EQ(sink.runs().size(), 2 * (1 + spec->panel_values.size()));
  std::uint32_t lanes = 0;
  for (std::uint32_t slot = 0; slot < kMaxThreads; ++slot) {
    if (!sink.HasLane(slot)) {
      continue;
    }
    ++lanes;
    std::uint32_t run = 0;
    std::uint64_t last = 0;
    std::uint64_t backwards = 0;
    sink.ForEachLaneEvent(slot, [&](const TraceEvent& event) {
      if (event.run_id != run) {
        run = event.run_id;
        last = 0;
      }
      backwards += event.timestamp < last ? 1 : 0;
      last = event.timestamp;
    });
    EXPECT_EQ(backwards, 0u) << "slot " << slot;
  }
  EXPECT_GT(lanes, 0u);
}

// The portability sweep's panel axis must mirror the --hw profile table
// one-to-one, in table order, or the matrix axes in PORTABILITY.md drift
// from what the binary actually runs.
TEST(ScenarioRegistryTest, PortabilityPanelsMirrorProfileTable) {
  RegisterAllScenarios();
  const ScenarioSpec* spec = ScenarioRegistry::Global().Find("portability");
  ASSERT_NE(spec, nullptr);
  const auto& profiles = AllHwProfiles();
  ASSERT_EQ(spec->panel_values.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(spec->panel_values[i], static_cast<double>(i));
  }
  EXPECT_EQ(spec->default_schemes,
            (std::vector<std::string>{"hle", "rwle"}));
}

TEST(ScenarioRegistryTest, PortabilityRunStampsProfilesAndRestoresConfig) {
  RegisterAllScenarios();
  const ScenarioSpec* spec = ScenarioRegistry::Global().Find("portability");
  ASSERT_NE(spec, nullptr);

  const HtmConfig before = HtmRuntime::Global().config();
  BenchOptions options;
  options.thread_counts = {2};
  options.total_ops = 400;
  options.seed = 11;
  const std::vector<std::string> schemes = {"hle", "rwle"};

  ScenarioRecord record;
  spec->run(*spec, options, schemes, record);

  const auto& profiles = AllHwProfiles();
  ASSERT_EQ(record.entries.size(), profiles.size() * schemes.size());
  for (std::size_t i = 0; i < record.entries.size(); ++i) {
    const auto& cell = record.entries[i];
    const PortabilitySnapshot& portability = cell.result.portability;
    SCOPED_TRACE(cell.scheme + "@" + portability.hw_profile);
    // Panel-major, scheme-minor, and the stamped profile name must be the
    // table entry the panel index selects.
    const auto panel = static_cast<std::size_t>(cell.panel_value);
    EXPECT_EQ(panel, i / schemes.size());
    EXPECT_EQ(cell.scheme, schemes[i % schemes.size()]);
    ASSERT_LT(panel, profiles.size());
    EXPECT_EQ(portability.hw_profile, profiles[panel].name);
    // The deterministic safety rows: full tracking never lets a torn scan
    // commit on power8, and rwle's quiescence protects its readers on every
    // profile. The other cells' counters are interleaving-dependent and are
    // deliberately not asserted here.
    if (portability.hw_profile == "power8" || cell.scheme == "rwle") {
      EXPECT_EQ(portability.torn_committed, 0u);
    }
  }
  // The sweep mutates the global TM model per cell and must put it back.
  const HtmConfig after = HtmRuntime::Global().config();
  EXPECT_EQ(after.subscription, before.subscription);
  EXPECT_EQ(after.resolution, before.resolution);
  EXPECT_EQ(after.tracked_read_lines, before.tracked_read_lines);
  EXPECT_EQ(after.tracked_write_lines, before.tracked_write_lines);
  EXPECT_EQ(after.max_read_lines, before.max_read_lines);
  EXPECT_EQ(after.max_write_lines, before.max_write_lines);
}

}  // namespace
}  // namespace rwle
