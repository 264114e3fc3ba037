// Figure 8: STMBench7-lite with 10/50/90% update operations. Expected
// shape: both RW-LE variants beat RWL (the best baseline) by ~2x and HLE by
// up to an order of magnitude -- STMBench7's large critical sections make
// HLE capacity-abort into the serial path almost always.
#include "bench/scenarios/scenario.h"
#include "src/workloads/stmbench7/stmbench7.h"

namespace rwle {

ScenarioSpec Fig8Scenario() {
  ScenarioSpec spec;
  spec.name = "fig8";
  spec.figure = "Figure 8";
  spec.title = "Figure 8: STMBench7 (medium database, default mix)";
  spec.panel_label = "% write operations";
  spec.panel_values = {0.10, 0.50, 0.90};
  spec.default_ops = 8000;
  spec.full_ops = 80000;
  spec.run = MakeGridRunner<Stmbench7Workload>();
  return spec;
}

}  // namespace rwle
