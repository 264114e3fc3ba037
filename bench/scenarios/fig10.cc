// Figure 10: TPC-C with 1% / 10% / 50% update transactions. Expected shape:
// in read-dominated panels RW-LE beats BRLock (best baseline) by several x
// and HLE by an order of magnitude (stock-level overflows read capacity);
// the 50%-write panel scales for nobody, but RW-LE stays ~25% ahead of HLE
// thanks to ROTs.
#include "bench/scenarios/scenario.h"
#include "src/workloads/tpcc/tpcc.h"

namespace rwle {

ScenarioSpec Fig10Scenario() {
  ScenarioSpec spec;
  spec.name = "fig10";
  spec.figure = "Figure 10";
  spec.title = "Figure 10: TPC-C (in-memory, RW-lock port)";
  spec.panel_label = "% update transactions";
  spec.panel_values = {0.01, 0.10, 0.50};
  spec.default_ops = 8000;
  spec.full_ops = 80000;
  spec.run = MakeGridRunner<TpccWorkload>();
  return spec;
}

}  // namespace rwle
