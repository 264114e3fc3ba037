// The scenario registry: every paper figure (and the ablation study) is a
// declarative ScenarioSpec -- name, paper figure, panel values, default
// scheme set, sweep sizes, and a `run` callable that executes the grid and
// feeds a ResultSink. The unified driver (driver.h) looks scenarios up here;
// bench/scenarios/figN*.cc define one spec each and all_scenarios.cc
// registers them.
#ifndef RWLE_BENCH_SCENARIOS_SCENARIO_H_
#define RWLE_BENCH_SCENARIOS_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace rwle {

struct ScenarioSpec;

// Executes the scenario's whole grid. `schemes` is the resolved scheme list
// (user --schemes or the spec's defaults), every name one that
// `spec.Accepts`; every completed run is pushed into `sink`. Panel values
// come from `spec.panel_values`.
using ScenarioRunFn = std::function<void(
    const ScenarioSpec& spec, const BenchOptions& options,
    const std::vector<std::string>& schemes, ResultSink& sink)>;

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

// Standard grid runner over a workload type: sweeps
// (spec.panel_values x schemes x options.thread_counts) via RunFigureGrid.
template <typename Workload>
ScenarioRunFn MakeGridRunner(
    std::function<std::unique_ptr<Workload>()> make_workload,
    std::function<void(Workload&, ElidableLock&, Rng&, bool)> op) {
  return [make_workload = std::move(make_workload), op = std::move(op)](
             const ScenarioSpec& spec, const BenchOptions& options,
             const std::vector<std::string>& schemes, ResultSink& sink) {
    RunFigureGrid<Workload>(options, &sink, spec.panel_values, schemes,
                            make_workload, op);
  };
}

}  // namespace rwle

#endif  // RWLE_BENCH_SCENARIOS_SCENARIO_H_
