#include "bench/scenarios/driver.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/scenarios/all_scenarios.h"
#include "bench/scenarios/scenario.h"
#include "src/common/flags.h"
#include "src/common/strings.h"
#include "src/harness/figure_report.h"
#include "src/harness/result_serializer.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/hw_profile.h"
#include "src/memory/paging_model.h"
#include "src/trace/trace_export.h"
#include "src/trace/trace_sink.h"

#ifdef RWLE_SCHED
#include "src/sched/scheduler.h"
#endif

namespace rwle {
namespace {

void PrintScenarioList() {
  std::printf("Registered scenarios (run with --scenario=NAME[,NAME...] or --all):\n\n");
  for (const ScenarioSpec& spec : ScenarioRegistry::Global().All()) {
    std::printf("  %-10s %s\n", spec.name.c_str(), spec.title.c_str());
    std::string panels;
    for (const double value : spec.panel_values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", value * 100.0);
      panels += panels.empty() ? buf : std::string(" ") + buf;
    }
    std::printf("  %-10s panels: %s (%s); ops: %llu default / %llu --full%s\n", "",
                panels.c_str(), spec.panel_label.c_str(),
                static_cast<unsigned long long>(spec.default_ops),
                static_cast<unsigned long long>(spec.full_ops),
                spec.enable_paging ? "; paging model on" : "");
    if (!spec.default_schemes.empty()) {
      std::string schemes;
      for (const auto& scheme : spec.default_schemes) {
        schemes += schemes.empty() ? scheme : "," + scheme;
      }
      std::printf("  %-10s schemes: %s\n", "", schemes.c_str());
    }
  }
  std::printf("\nScenarios without a scheme list sweep the default set: ");
  for (const auto& name : AllLockNames()) {
    std::printf("%s ", name.c_str());
  }
  std::printf("\n");
}

void PrintSchemeList() {
  std::printf("Schemes accepted by --schemes (from the lock factory):\n\n");
  for (const SchemeInfo& scheme : AllSchemes()) {
    std::printf("  %-18s %s\n", scheme.name.c_str(), scheme.description.c_str());
  }
  std::printf("\nDefault sweep set (paper plot order): ");
  for (const auto& name : AllLockNames()) {
    std::printf("%s ", name.c_str());
  }
  std::printf("\n");
}

// Builds the manifest describing one scenario run (serialized alongside the
// results; see result_serializer.h).
RunManifest BuildManifest(const ScenarioSpec& spec, const BenchOptions& options,
                          const std::vector<std::string>& schemes) {
  RunManifest manifest;
  manifest.scenario = spec.name;
  manifest.figure = spec.figure;
  manifest.title = spec.title;
  manifest.panel_label = spec.panel_label;
  manifest.schemes = schemes;
  manifest.thread_counts = options.thread_counts;
  manifest.total_ops = options.total_ops;
  manifest.seed = options.seed;
  manifest.full_sweep = options.full;
  manifest.htm_config = HtmRuntime::Global().config();
  manifest.hw_profile = options.hw_profile;
  manifest.git_sha = BuildGitSha();
  manifest.created_unix = NowUnixSeconds();
  return manifest;
}

}  // namespace

int BenchMain(int argc, char** argv) {
  RegisterAllScenarios();
  const ScenarioRegistry& registry = ScenarioRegistry::Global();

  const std::string default_threads = "1,2,4,8,16,32";
  const std::string full_threads = "1,2,4,8,16,32,64,80";
  std::string threads = default_threads;
  std::uint64_t ops = 0;
  std::string schemes_flag;
  std::uint64_t seed = 42;
  std::string hw;
  bool list_hw = false;
  bool csv = false;
  bool full = false;
  bool analysis = false;
  bool sched_runs = false;
  std::uint64_t slo_p99_ns = 0;
  std::uint64_t slo_p999_ns = 0;
  std::string scenario_flag;
  bool run_all = false;
  std::string json_path;
  std::string trace_path;
  bool list_scenarios = false;
  bool list_schemes = false;
  std::vector<std::string> positional;

  FlagSet flags(
      "rwle_bench: unified driver for every evaluation scenario.\n"
      "Pick work with --scenario=fig3[,fig5,...], positional names, or --all;\n"
      "discover it with --list-scenarios / --list-schemes.");
  flags.AddString("threads", &threads, "comma-separated thread counts");
  flags.AddUint("ops", &ops, "total operations per run (0 = scenario default)");
  flags.AddString("schemes", &schemes_flag,
                  "comma-separated scheme names (default: the scenario's set)");
  flags.AddUint("seed", &seed, "base RNG seed (each run uses seed + threads)");
  flags.AddString("hw", &hw,
                  "hardware profile for the whole invocation "
                  "(default: power8; see --list-hw)");
  flags.AddBool("list-hw", &list_hw,
                "print the hardware-profile table and exit");
  flags.AddBool("csv", &csv, "emit CSV instead of ASCII tables");
  flags.AddBool("full", &full, "paper-scale sweep (more threads and ops)");
  flags.AddBool("analysis", &analysis,
                "run under the txsan oracle and print its summary "
                "(requires an RWLE_ANALYSIS build)");
  flags.AddBool("sched", &sched_runs,
                "serialize each run's measured region under the deterministic "
                "scheduler, seeded from --seed (requires an RWLE_SCHED build)");
  flags.AddUint("slo-p99-ns", &slo_p99_ns,
                "open-loop scenarios: p99 sojourn target in modeled ns "
                "(0 = scenario default)");
  flags.AddUint("slo-p999-ns", &slo_p999_ns,
                "open-loop scenarios: p99.9 sojourn target in modeled ns "
                "(0 = scenario default)");
  flags.AddString("json", &json_path,
                  "write all selected scenarios as one JSON document to this file");
  flags.AddString("trace", &trace_path,
                  "record transaction-level events and write a Chrome "
                  "trace_event JSON file (view in Perfetto)");
  flags.AddBool("list-scenarios", &list_scenarios,
                "print the scenario registry and exit");
  flags.AddBool("list-schemes", &list_schemes,
                "print every scheme the lock factory can build and exit");
  flags.AddString("scenario", &scenario_flag,
                  "comma-separated scenario names to run (see --list-scenarios)");
  flags.AddBool("all", &run_all, "run every registered scenario");
  flags.AllowPositional(&positional, "scenario names (same as --scenario)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  if (list_scenarios) {
    PrintScenarioList();
    return 0;
  }
  if (list_schemes) {
    PrintSchemeList();
    return 0;
  }
  if (list_hw) {
    std::printf("Hardware profiles accepted by --hw (src/htm/hw_profile.h):\n\n");
    for (const HwProfile& profile : AllHwProfiles()) {
      std::printf("  %-16s %s\n", profile.name.c_str(), profile.description.c_str());
    }
    return 0;
  }
  if (!hw.empty()) {
    const HwProfile* profile = FindHwProfile(hw);
    if (profile == nullptr) {
      std::fprintf(stderr, "unknown hardware profile: %s (try --list-hw)\n",
                   hw.c_str());
      return 1;
    }
    HtmRuntime::Global().set_config(profile->config);
  }

  BenchOptions options;
  // --full upgrades the thread sweep unless the user pinned --threads.
  bool threads_ok = false;
  options.thread_counts =
      ParseUintList(full && threads == default_threads ? full_threads : threads,
                    &threads_ok);
  const bool threads_in_range =
      std::all_of(options.thread_counts.begin(), options.thread_counts.end(),
                  [](std::uint32_t count) { return count >= 1 && count <= kMaxThreads; });
  if (!threads_ok || options.thread_counts.empty() || !threads_in_range) {
    std::fprintf(stderr, "bad --threads list (each count must be 1..%u)\n%s", kMaxThreads,
                 flags.Usage().c_str());
    return 1;
  }
  options.total_ops = ops;  // resolved per scenario below
  options.schemes = SplitCommaList(schemes_flag);
  options.seed = seed;
  options.hw_profile = hw;
  options.csv = csv;
  options.full = full;
  options.analysis = analysis;
  options.slo_p99_ns = slo_p99_ns;
  options.slo_p999_ns = slo_p999_ns;
  if (analysis && !EnableAnalysis()) {
    return 1;
  }
  if (sched_runs) {
#ifdef RWLE_SCHED
    sched::EnableScheduledRuns(seed);
#else
    std::fprintf(stderr,
                 "--sched requires a scheduler build (cmake -DRWLE_SCHED=ON)\n");
    return 1;
#endif
  }

  std::vector<std::string> selected;
  if (run_all) {
    selected = registry.Names();
  } else {
    for (const auto& name : SplitCommaList(scenario_flag)) {
      selected.push_back(name);
    }
    for (const auto& name : positional) {
      selected.push_back(name);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario selected\n\n");
    PrintScenarioList();
    return 1;
  }
  for (const auto& name : selected) {
    const ScenarioSpec* spec = registry.Find(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown scenario: %s (try --list-scenarios)\n",
                   name.c_str());
      return 1;
    }
    for (const auto& scheme : options.schemes) {
      if (!spec->Accepts(scheme)) {
        std::fprintf(stderr,
                     "scenario %s cannot run scheme %s (try --list-schemes; "
                     "--list-scenarios shows scenario-only names)\n",
                     name.c_str(), scheme.c_str());
        return 1;
      }
    }
  }

  // Tracing: one process-wide sink for the whole invocation, installed once
  // no early return can follow; scenario code labels the runs.
  std::unique_ptr<MemoryTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<MemoryTraceSink>();
    SetTraceSink(trace_sink.get());
  }

  std::vector<ScenarioRecord> records;
  for (const auto& name : selected) {
    const ScenarioSpec& spec = *registry.Find(name);

    BenchOptions run_options = options;
    run_options.total_ops =
        ops != 0 ? ops : (full ? spec.full_ops : spec.default_ops);
    const std::vector<std::string> schemes =
        !options.schemes.empty()
            ? options.schemes
            : (!spec.default_schemes.empty() ? spec.default_schemes : AllLockNames());

    ScenarioRecord& record = records.emplace_back();
    record.manifest = BuildManifest(spec, run_options, schemes);

    if (trace_sink != nullptr) {
      trace_sink->set_scenario(spec.name);
    }

    std::unique_ptr<PagingModel> paging;
    if (spec.enable_paging) {
      paging = std::make_unique<PagingModel>(PagingModel::Config{});
      HtmRuntime::Global().set_interrupt_source(paging.get());
    }

    spec.run(spec, run_options, schemes, record);

    std::printf("%s", RenderFigureReport(record, options.csv).c_str());
    if (paging != nullptr) {
      std::printf("paging faults injected: %llu\n",
                  static_cast<unsigned long long>(paging->TotalFaults()));
      HtmRuntime::Global().set_interrupt_source(nullptr);
    }
  }

  bool io_ok = json_path.empty() || WriteResultFile(json_path, records);

  if (trace_sink != nullptr) {
    SetTraceSink(nullptr);
    io_ok = WriteChromeTraceFile(trace_path, *trace_sink) && io_ok;
  }

  if (FinishAnalysis(options) != 0) {
    return 2;
  }
  return io_ok ? 0 : 1;
}

}  // namespace rwle
