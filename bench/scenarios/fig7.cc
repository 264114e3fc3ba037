// Figure 7: fairness stress. RW-LE with the ROT fallback disabled (so the
// non-speculative path -- the source of reader starvation -- is exercised
// often) versus the FAIR variant, on the high-capacity/high-contention
// hashmap. Expected shape: the fair variant wins at high thread counts and
// low write ratios (where reader starvation bites) and is otherwise a wash.
#include "bench/scenarios/scenario.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {

ScenarioSpec Fig7Scenario() {
  ScenarioSpec spec;
  spec.name = "fig7";
  spec.figure = "Figure 7";
  spec.title = "Figure 7: fairness stress scenario";
  spec.panel_label = "% write locks";
  spec.panel_values = {0.10, 0.50, 0.90};
  spec.default_schemes = {"rwle-norot", "rwle-fair"};
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.run = MakeGridRunner<HashMapWorkload>(HashMapScenario::HighCapacityHighContention());
  return spec;
}

}  // namespace rwle
