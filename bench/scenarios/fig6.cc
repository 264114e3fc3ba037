// Figure 6: low capacity pressure, low contention, with the VM/paging
// interrupt model active (sparse accesses over many buckets keep faulting).
// Expected shape: HLE shows almost no capacity aborts but a spiking rate of
// "HTM non-tx" (interrupt) aborts; RW-LE readers are immune because they
// never speculate, giving up to order-of-magnitude gains; RW-LE_PES pays
// ~2x vs RW-LE_OPT for serializing writers in this low-conflict setting.
#include "bench/scenarios/scenario.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {

ScenarioSpec Fig6Scenario() {
  ScenarioSpec spec;
  spec.name = "fig6";
  spec.figure = "Figure 6";
  spec.title =
      "Figure 6: low capacity, low contention + paging (hashmap l=4096, 50/bucket)";
  spec.panel_label = "% write locks";
  spec.panel_values = {0.01, 0.10, 0.90};
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.enable_paging = true;
  spec.run = MakeGridRunner<HashMapWorkload>(HashMapScenario::LowCapacityLowContention());
  return spec;
}

}  // namespace rwle
