// The unified benchmark driver behind the `rwle_bench` binary: parses
// flags, selects scenarios from the registry, runs each grid once into a
// ScenarioRecord, then renders the ASCII/CSV report from the record and
// writes the JSON archive (--json) from all records.
#ifndef RWLE_BENCH_SCENARIOS_DRIVER_H_
#define RWLE_BENCH_SCENARIOS_DRIVER_H_

namespace rwle {

// Runs the driver; the user picks scenarios via --scenario=..., positional
// names, or --all.
//
// Exit codes: 0 success, 1 usage or I/O error, 2 txsan violations under
// --analysis.
int BenchMain(int argc, char** argv);

}  // namespace rwle

#endif  // RWLE_BENCH_SCENARIOS_DRIVER_H_
