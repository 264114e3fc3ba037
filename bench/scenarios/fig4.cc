// Figure 4: high capacity pressure, low contention (many buckets).
// Expected shape: RW-LE wins read-dominated panels; RW-LE_PES pays a
// serialization toll vs RW-LE_OPT (writers rarely conflict here).
#include "bench/scenarios/scenario.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {

ScenarioSpec Fig4Scenario() {
  ScenarioSpec spec;
  spec.name = "fig4";
  spec.figure = "Figure 4";
  spec.title = "Figure 4: high capacity, low contention (hashmap l=1024, 200/bucket)";
  spec.panel_label = "% write locks";
  spec.panel_values = {0.01, 0.10, 0.90};
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.run = MakeGridRunner<HashMapWorkload>(HashMapScenario::HighCapacityLowContention());
  return spec;
}

}  // namespace rwle
