#include "src/harness/result_serializer.h"

#include <cstdio>
#include <ctime>
#include <fstream>

#include "src/common/json_writer.h"

namespace rwle {
namespace {

void WriteManifest(JsonWriter& json, const RunManifest& manifest) {
  json.Key("manifest");
  json.BeginObject();
  json.Field("scenario", manifest.scenario);
  json.Field("figure", manifest.figure);
  json.Field("title", manifest.title);
  json.Field("panel_label", manifest.panel_label);
  json.Key("schemes");
  json.BeginArray();
  for (const auto& scheme : manifest.schemes) {
    json.String(scheme);
  }
  json.EndArray();
  json.Key("thread_counts");
  json.BeginArray();
  for (const std::uint32_t threads : manifest.thread_counts) {
    json.Uint(threads);
  }
  json.EndArray();
  json.Field("total_ops", manifest.total_ops);
  json.Field("seed", manifest.seed);
  json.Field("full_sweep", manifest.full_sweep);
  json.Key("htm_config");
  json.BeginObject();
  json.Field("max_read_lines", std::uint64_t{manifest.htm_config.max_read_lines});
  json.Field("max_write_lines", std::uint64_t{manifest.htm_config.max_write_lines});
  json.Field("yield_access_period",
             std::uint64_t{manifest.htm_config.yield_access_period});
  json.Field("subscription", manifest.htm_config.subscription == SubscriptionPolicy::kLazy
                                 ? "lazy"
                                 : "eager");
  json.Field("resolution",
             manifest.htm_config.resolution == ResolutionPolicy::kCommitterWins
                 ? "committer-wins"
                 : "requester-wins");
  json.Field("tracked_read_lines",
             std::uint64_t{manifest.htm_config.tracked_read_lines});
  json.Field("tracked_write_lines",
             std::uint64_t{manifest.htm_config.tracked_write_lines});
  json.EndObject();
  json.Field("hw_profile", manifest.hw_profile);
  json.Field("git_sha", manifest.git_sha);
  json.Field("created_unix", manifest.created_unix);
  json.EndObject();
}

// Writes one flat block: its fields in declaration order, plus "total" for a
// counter breakdown. The one omission rule lives here: an optional block
// whose fields all hold their defaults is left out, so a run that never
// touches a subsystem keeps an unchanged document.
template <typename Block>
void WriteBlock(JsonWriter& json, std::string_view key, const Block& block,
                BlockPresence presence = BlockPresence::kOmitWhenEmpty) {
  if (presence == BlockPresence::kOmitWhenEmpty && block == Block{}) {
    return;
  }
  json.Key(key);
  json.BeginObject();
  block.ForEachField(
      [&json](std::string_view name, const auto& value) { json.Field(name, value); });
  if constexpr (requires { block.Total(); }) {
    json.Field("total", block.Total());
  }
  json.EndObject();
}

void WriteLatencyStats(JsonWriter& json, std::string_view key,
                       const LatencyStats& stats) {
  json.Key(key);
  json.BeginObject();
  json.Field("count", stats.count);
  json.Field("mean_ns", stats.mean);
  json.Field("p50_ns", stats.p50);
  json.Field("p90_ns", stats.p90);
  json.Field("p99_ns", stats.p99);
  json.Field("p999_ns", stats.p999);
  json.Field("max_ns", stats.max);
  json.EndObject();
}

// Per-op latency percentiles (modeled nanoseconds), with a per-commit-path
// breakdown for paths that were actually taken. Omitted entirely when the
// run recorded no latencies.
void WriteLatency(JsonWriter& json, const LatencySnapshot& latency) {
  if (latency.op[static_cast<int>(OpKind::kRead)].count == 0 &&
      latency.op[static_cast<int>(OpKind::kWrite)].count == 0) {
    return;
  }
  json.Key("latency");
  json.BeginObject();
  for (int op = 0; op < kOpKindCount; ++op) {
    WriteLatencyStats(json, OpKindName(static_cast<OpKind>(op)), latency.op[op]);
  }
  for (int op = 0; op < kOpKindCount; ++op) {
    json.Key(std::string(OpKindName(static_cast<OpKind>(op))) + "_paths");
    json.BeginObject();
    for (int path = 0; path < kCommitPathCount; ++path) {
      const LatencyStats& stats = latency.by_path[op][path];
      if (stats.count == 0) {
        continue;
      }
      WriteLatencyStats(json, CommitPathKey(static_cast<CommitPath>(path)), stats);
    }
    json.EndObject();
  }
  json.EndObject();
}

void WriteEntry(JsonWriter& json, const ScenarioRecord::Entry& entry) {
  const RunResult& result = entry.result;
  const StatsSnapshot snapshot = result.stats.Snapshot();
  json.BeginObject();
  json.Field("scheme", entry.scheme);
  json.Field("panel_value", entry.panel_value);
  json.Field("threads", std::uint64_t{result.threads});
  json.Field("total_ops", result.total_ops);
  json.Field("wall_seconds", result.wall_seconds);
  json.Field("modeled_seconds", result.modeled_seconds);
  json.Field("modeled_throughput_ops", result.ModeledThroughput());
  json.Key("cost");
  json.BeginObject();
  json.Field("parallel", result.cost.parallel);
  json.Field("writer_serial", result.cost.writer_serial);
  json.Field("global_serial", result.cost.global_serial);
  json.EndObject();
#define RWLE_WRITE_FAMILY(Enum, Breakdown, member, LIST, presence) \
  WriteBlock(json, #member, snapshot.member, presence);
  RWLE_STATS_FAMILIES(RWLE_WRITE_FAMILY)
#undef RWLE_WRITE_FAMILY
  WriteLatency(json, result.latency);
  WriteBlock(json, "service", result.service);
  WriteBlock(json, "portability", result.portability);
  json.EndObject();
}

}  // namespace

std::string BuildGitSha() {
#ifdef RWLE_GIT_SHA
  return RWLE_GIT_SHA;
#else
  return "unknown";
#endif
}

std::int64_t NowUnixSeconds() {
  return static_cast<std::int64_t>(std::time(nullptr));
}

std::ostream& WriteResultDocument(std::ostream& os,
                                  const std::vector<ScenarioRecord>& records) {
  JsonWriter json(os);
  json.BeginObject();
  json.Field("format_version", std::uint64_t{1});
  json.Field("generator", "rwle_bench");
  json.Key("scenarios");
  json.BeginArray();
  for (const ScenarioRecord& record : records) {
    json.BeginObject();
    WriteManifest(json, record.manifest);
    json.Key("results");
    json.BeginArray();
    for (const auto& entry : record.entries) {
      WriteEntry(json, entry);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return os;
}

bool WriteResultFile(const std::string& path, const std::vector<ScenarioRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  WriteResultDocument(out, records);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace rwle
