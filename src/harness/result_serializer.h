// Benchmark results, in memory and as JSON.
//
// A ScenarioRecord holds what one scenario run produced: a RunManifest (what
// was run: scenario, schemes, sweep sizes, HtmConfig, git SHA, timestamp)
// and every completed run in run order. The driver renders the figure
// tables from it (figure_report.h) and serializes it as one "scenario
// object". WriteResultDocument wraps one or more records in the versioned
// top-level document consumed by tools/bench_compare.py:
//
//   {
//     "format_version": 1,
//     "generator": "rwle_bench",
//     "scenarios": [ { "manifest": {...}, "results": [...] }, ... ]
//   }
//
// The full schema is documented in EXPERIMENTS.md ("JSON result schema").
#ifndef RWLE_SRC_HARNESS_RESULT_SERIALIZER_H_
#define RWLE_SRC_HARNESS_RESULT_SERIALIZER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/harness/bench_harness.h"
#include "src/htm/htm_config.h"

namespace rwle {

// Everything needed to reproduce (and meaningfully compare) a scenario run.
struct RunManifest {
  std::string scenario;     // registry name, e.g. "fig3"
  std::string figure;       // paper figure, e.g. "Figure 3"
  std::string title;        // full report title
  std::string panel_label;  // e.g. "% write locks"
  std::vector<std::string> schemes;
  std::vector<std::uint32_t> thread_counts;
  std::uint64_t total_ops = 0;
  std::uint64_t seed = 0;  // base seed; each run uses seed + threads
  bool full_sweep = false;
  HtmConfig htm_config;
  // Named hardware profile the whole invocation ran under (--hw); empty
  // means the default config above was used as-is. The portability scenario
  // overrides the config per cell and names the profile per result entry
  // instead (the "portability" block), so this stays empty there.
  std::string hw_profile;
  std::string git_sha;           // build-time SHA, "unknown" outside a checkout
  std::int64_t created_unix = 0; // seconds since epoch, 0 if unavailable
};

// The compiled-in git SHA (RWLE_GIT_SHA, captured at configure time) or
// "unknown".
std::string BuildGitSha();

// Current wall-clock time in unix seconds.
std::int64_t NowUnixSeconds();

// One scenario run: its manifest and one entry per completed run.
struct ScenarioRecord {
  struct Entry {
    std::string scheme;
    // The scenario's displayed panel quantity (write-lock percentage for the
    // figure scenarios).
    double panel_value = 0.0;
    RunResult result;
  };

  RunManifest manifest;
  std::vector<Entry> entries;  // run order
};

// Writes the versioned top-level document containing `records`, in order.
// Returns the stream.
std::ostream& WriteResultDocument(std::ostream& os,
                                  const std::vector<ScenarioRecord>& records);

// Convenience: writes the document for `records` to `path`. Returns false
// (with a message on stderr) if the file cannot be written.
bool WriteResultFile(const std::string& path, const std::vector<ScenarioRecord>& records);

}  // namespace rwle

#endif  // RWLE_SRC_HARNESS_RESULT_SERIALIZER_H_
