// Machine-readable wall-clock micro-benchmark results (the rwle_perf
// driver's output).
//
// This is the repo's *wall-clock* performance trajectory, deliberately kept
// separate from the modeled-time documents result_serializer.h writes: modeled
// throughput is deterministic and tightly gated, while ns/op numbers are
// host-dependent and gated loosely (see PERFORMANCE.md). The document shape
// mirrors the rwle_bench archive so tools/bench_compare.py can gate both:
//
//   {
//     "format_version": 1,
//     "generator": "rwle_perf",
//     "manifest": { "ops_per_rep": ..., "reps": ..., "git_sha": ...,
//                   "created_unix": ... },
//     "benchmarks": [ { "name": ..., "ns_per_op": ...,
//                       "ns_per_op_mean": ..., "total_ops": ... }, ... ]
//   }
//
// `ns_per_op` is the minimum over reps (the least-disturbed measurement, the
// number that is gated); `ns_per_op_mean` is the average over reps (reported
// for information). Schema documented in EXPERIMENTS.md ("Wall-clock
// micro-benchmarks").
#ifndef RWLE_SRC_HARNESS_PERF_REPORT_H_
#define RWLE_SRC_HARNESS_PERF_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rwle {

// One completed micro-benchmark.
struct PerfBenchmarkResult {
  std::string name;            // stable key, e.g. "htm_write_commit"
  double ns_per_op = 0.0;      // min over reps -- the gated number
  double ns_per_op_mean = 0.0; // mean over reps
  std::uint64_t total_ops = 0; // ops summed over all reps
  std::uint64_t reps = 0;
};

// What the run looked like; stamped into the document like RunManifest is
// for rwle_bench archives.
struct PerfManifest {
  std::uint64_t ops_per_rep = 0;
  std::uint64_t reps = 0;
  std::string git_sha;            // BuildGitSha()
  std::int64_t created_unix = 0;  // NowUnixSeconds()
};

// Writes the versioned perf document. Returns the stream.
std::ostream& WritePerfDocument(std::ostream& os, const PerfManifest& manifest,
                                const std::vector<PerfBenchmarkResult>& benchmarks);

// Convenience: writes the document to `path`. Returns false (with a message
// on stderr) if the file cannot be written.
bool WritePerfFile(const std::string& path, const PerfManifest& manifest,
                   const std::vector<PerfBenchmarkResult>& benchmarks);

}  // namespace rwle

#endif  // RWLE_SRC_HARNESS_PERF_REPORT_H_
