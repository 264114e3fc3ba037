// The unified experiment driver: runs any registered scenario (paper
// Figures 3-10 plus the §3.3 ablations) through the single flag surface
// documented in EXPERIMENTS.md. `rwle_bench --list-scenarios` shows what is
// available; `--json` archives machine-readable results.
#include "bench/scenarios/driver.h"

int main(int argc, char** argv) { return rwle::BenchMain(argc, argv); }
