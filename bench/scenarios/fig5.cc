// Figure 5: low capacity pressure (50 items), high contention (single
// bucket). Expected shape: HLE commits mostly in HTM but conflicts burn its
// retry budget at high thread counts; RW-LE falls back to ROTs, which
// serialize writers yet keep readers running.
#include "bench/scenarios/scenario.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {

ScenarioSpec Fig5Scenario() {
  ScenarioSpec spec;
  spec.name = "fig5";
  spec.figure = "Figure 5";
  spec.title = "Figure 5: low capacity, high contention (hashmap l=1, 50/bucket)";
  spec.panel_label = "% write locks";
  spec.panel_values = {0.01, 0.10, 0.90};
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.run = MakeGridRunner<HashMapWorkload>(HashMapScenario::LowCapacityHighContention());
  return spec;
}

}  // namespace rwle
