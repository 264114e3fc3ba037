// Figure 3: high capacity pressure (200 items/bucket), high contention
// (single bucket). Expected shape: RW-LE variants dominate in the
// read-dominated panels (HLE collapses to the serial path on capacity);
// in the 90%-write panel RW-LE_PES stays competitive via ROTs.
#include "bench/scenarios/scenario.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {

ScenarioSpec Fig3Scenario() {
  ScenarioSpec spec;
  spec.name = "fig3";
  spec.figure = "Figure 3";
  spec.title = "Figure 3: high capacity, high contention (hashmap l=1, 200/bucket)";
  spec.panel_label = "% write locks";
  spec.panel_values = {0.01, 0.10, 0.90};
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.run = MakeGridRunner<HashMapWorkload>(HashMapScenario::HighCapacityHighContention());
  return spec;
}

}  // namespace rwle
