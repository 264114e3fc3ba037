// Figure 9: Kyoto Cabinet CacheDB (wicked benchmark) with <1% / 5% / 10%
// outer-write-lock acquisition rates. Expected shape: RW-LE scales with the
// record traffic until the (non-elided) inner slot mutexes saturate;
// BRLock stops scaling earlier (writers sweep all private mutexes); RW-LE
// keeps a ~2x edge even in the 10% panel.
#include "bench/scenarios/scenario.h"
#include "src/workloads/kyoto/cache_db.h"

namespace rwle {

ScenarioSpec Fig9Scenario() {
  ScenarioSpec spec;
  spec.name = "fig9";
  spec.figure = "Figure 9";
  spec.title = "Figure 9: KyotoCacheDB wicked benchmark";
  spec.panel_label = "% outer write locks";
  spec.panel_values = {0.001, 0.05, 0.10};
  spec.default_ops = 8000;
  spec.full_ops = 80000;
  spec.run = MakeGridRunner<KyotoWorkload>();
  return spec;
}

}  // namespace rwle
