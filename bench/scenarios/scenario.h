// The scenario registry: every paper figure (and the ablation study) is a
// declarative ScenarioSpec -- name, paper figure, panel values, default
// scheme set, sweep sizes, and a `run` callable that executes the grid and
// appends every run to a ScenarioRecord. The driver (driver.h) looks
// scenarios up here; bench/scenarios/figN*.cc define one spec each and
// all_scenarios.cc registers them.
#ifndef RWLE_BENCH_SCENARIOS_SCENARIO_H_
#define RWLE_BENCH_SCENARIOS_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace rwle {

struct ScenarioSpec;

// Executes the scenario's whole grid. `schemes` is the resolved scheme list
// (user --schemes or the spec's defaults), every name one that
// `spec.Accepts`; every completed run is appended to `record`. Panel values
// come from `spec.panel_values`.
using ScenarioRunFn = std::function<void(
    const ScenarioSpec& spec, const BenchOptions& options,
    const std::vector<std::string>& schemes, ScenarioRecord& record)>;

struct ScenarioSpec {
  std::string name;         // registry key and results/<name>.json stem, e.g. "fig3"
  std::string figure;       // the paper figure this reproduces, e.g. "Figure 3"
  std::string title;        // full report title
  std::string panel_label;  // what panels sweep over, e.g. "% write locks"
  // Write-lock ratios as fractions; panels display them as percentages.
  std::vector<double> panel_values;
  // Scheme names swept by default; empty means AllLockNames().
  std::vector<std::string> default_schemes;
  // Whether --schemes may also name any scheme the lock factory builds.
  // Off when the scheme names are the scenario's own labels (the ablation
  // cases); it then runs only names from default_schemes.
  bool lock_factory_schemes = true;
  std::uint64_t default_ops = 20000;  // quick sweep (per run)
  std::uint64_t full_ops = 200000;    // --full paper-scale sweep
  bool enable_paging = false;         // install the VM/paging interrupt model
  ScenarioRunFn run;

  // Whether `run` can run `scheme`: a default scheme, or (with
  // lock_factory_schemes) any name MakeLock builds. rwle_bench rejects a
  // --schemes list with a name this returns false for.
  bool Accepts(const std::string& scheme) const;
};

class ScenarioRegistry {
 public:
  static ScenarioRegistry& Global();

  // Registers `spec`; the name must be unique, the panel list non-empty and
  // `run` callable (checked, so a malformed spec fails fast at startup).
  void Register(ScenarioSpec spec);

  // nullptr when `name` is not registered.
  const ScenarioSpec* Find(const std::string& name) const;

  // Registration order (the order figures appear in the paper).
  const std::vector<ScenarioSpec>& All() const { return specs_; }
  std::vector<std::string> Names() const;

 private:
  std::vector<ScenarioSpec> specs_;
};

// Sweeps (spec.panel_values x schemes x options.thread_counts), scheme-major
// within each panel, one RunCell per cell. A panel value is a write ratio;
// each cell runs on `make_lock(scheme)` and a fresh `Workload(args...)`,
// whose Op(lock, rng, is_write) is one operation.
template <typename Workload, typename MakeLockFn, typename... Args>
void RunFigureGrid(const ScenarioSpec& spec, const BenchOptions& options,
                   const std::vector<std::string>& schemes, ScenarioRecord& record,
                   const MakeLockFn& make_lock, const Args&... args) {
  for (const double ratio : spec.panel_values) {
    for (const auto& scheme : schemes) {
      for (const std::uint32_t threads : options.thread_counts) {
        RunCell(
            options, {scheme, ratio * 100.0, ratio, threads}, record,
            [&] { return make_lock(scheme); },
            [&](ElidableLock&) { return std::make_unique<Workload>(args...); },
            [](Workload& workload, ElidableLock& lock, std::uint32_t, Rng& rng,
               bool is_write) { workload.Op(lock, rng, is_write); });
      }
    }
  }
}

// The figure scenarios' runner: RunFigureGrid over lock-factory schemes.
template <typename Workload, typename... Args>
ScenarioRunFn MakeGridRunner(Args... args) {
  return [args...](const ScenarioSpec& spec, const BenchOptions& options,
                   const std::vector<std::string>& schemes, ScenarioRecord& record) {
    RunFigureGrid<Workload>(
        spec, options, schemes, record,
        [](const std::string& scheme) { return MakeLock(scheme); },
        args...);
  };
}

}  // namespace rwle

#endif  // RWLE_BENCH_SCENARIOS_SCENARIO_H_
