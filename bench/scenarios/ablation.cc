// Ablation scenario for RW-LE's design knobs (DESIGN.md E9):
//   (a) single-scan vs snapshot+wait quiescence on the NS path (§3.3),
//   (b) the speculative retry budget (the paper settled on 5 after a sweep),
//   (c) ROT fallback on vs off, (d) split ROT/NS locks.
// Workload: the high-capacity/high-contention hashmap, the configuration
// where fallback paths are exercised the most. The ablation cases play the
// role of schemes (so --schemes filters them and the record labels rows by
// case name). They are its only scheme names.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/scenarios/scenario.h"
#include "src/locks/elidable_lock.h"
#include "src/rwle/rwle_lock.h"
#include "src/workloads/hashmap/hashmap_workload.h"

namespace rwle {
namespace {

struct AblationCase {
  std::string name;
  RwLePolicy policy;
};

// Case names double as scheme names: keep them comma-free so --schemes
// lists parse.
std::vector<AblationCase> Cases() {
  std::vector<AblationCase> cases;
  RwLePolicy base;

  cases.push_back({"default-htm5-rot5-1scan", base});

  RwLePolicy two_scan = base;
  two_scan.single_scan_ns_sync = false;
  cases.push_back({"two-scan-ns-sync", two_scan});

  for (const std::uint32_t retries : {0u, 1u, 10u}) {
    RwLePolicy policy = base;
    policy.max_htm_retries = retries;
    policy.max_rot_retries = retries == 0 ? 5 : retries;
    cases.push_back({"retries-" + std::to_string(retries), policy});
  }

  RwLePolicy no_rot = base;
  no_rot.use_rot = false;
  cases.push_back({"no-rot", no_rot});

  RwLePolicy split = base;
  split.split_rot_ns_locks = true;
  cases.push_back({"split-rot-ns-locks", split});
  return cases;
}

void RunAblation(const ScenarioSpec& spec, const BenchOptions& options,
                 const std::vector<std::string>& schemes, ScenarioRecord& record) {
  const std::vector<AblationCase> cases = Cases();
  // Cases run in declaration order, whatever order --schemes lists them in.
  std::vector<std::string> selected;
  for (const auto& ablation : cases) {
    if (std::find(schemes.begin(), schemes.end(), ablation.name) != schemes.end()) {
      selected.push_back(ablation.name);
    }
  }
  RunFigureGrid<HashMapWorkload>(
      spec, options, selected, record,
      [&](const std::string& name) {
        const auto ablation =
            std::find_if(cases.begin(), cases.end(),
                         [&](const AblationCase& c) { return c.name == name; });
        return std::make_unique<LockAdapter<RwLeLock>>(name, ablation->policy);
      },
      HashMapScenario::HighCapacityHighContention());
}

}  // namespace

ScenarioSpec AblationScenario() {
  ScenarioSpec spec;
  spec.name = "ablation";
  spec.figure = "§3.3 ablations";
  spec.title = "Ablation: RW-LE optimizations (hashmap l=1, 200/bucket)";
  spec.panel_label = "% write locks";
  spec.panel_values = {0.10};
  for (const auto& ablation : Cases()) {
    spec.default_schemes.push_back(ablation.name);
  }
  spec.lock_factory_schemes = false;
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.run = RunAblation;
  return spec;
}

}  // namespace rwle
