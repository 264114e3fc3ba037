#include "src/harness/figure_report.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table.h"

namespace rwle {
namespace {

std::string PanelName(const std::string& label, double value) {
  std::ostringstream os;
  os << value << " " << label;
  return os.str();
}

std::vector<double> PanelValues(const std::vector<ScenarioRecord::Entry>& entries) {
  std::vector<double> values;
  for (const auto& entry : entries) {
    if (std::find(values.begin(), values.end(), entry.panel_value) == values.end()) {
      values.push_back(entry.panel_value);
    }
  }
  return values;
}

std::vector<std::string> Schemes(const std::vector<ScenarioRecord::Entry>& entries) {
  std::vector<std::string> schemes;
  for (const auto& entry : entries) {
    if (std::find(schemes.begin(), schemes.end(), entry.scheme) == schemes.end()) {
      schemes.push_back(entry.scheme);
    }
  }
  return schemes;
}

std::vector<std::uint32_t> ThreadCounts(const std::vector<ScenarioRecord::Entry>& entries) {
  std::vector<std::uint32_t> counts;
  for (const auto& entry : entries) {
    if (std::find(counts.begin(), counts.end(), entry.result.threads) == counts.end()) {
      counts.push_back(entry.result.threads);
    }
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

}  // namespace

std::string RenderFigureReport(const ScenarioRecord& record, bool csv) {
  const std::vector<ScenarioRecord::Entry>& entries = record.entries;
  const std::string& panel_label = record.manifest.panel_label;
  std::ostringstream os;
  os << "==== " << record.manifest.title << " ====\n";

  const auto panels = PanelValues(entries);
  const auto schemes = Schemes(entries);
  const auto thread_counts = ThreadCounts(entries);

  auto find = [&](const std::string& scheme, double panel,
                  std::uint32_t threads) -> const RunResult* {
    for (const auto& entry : entries) {
      if (entry.scheme == scheme && entry.panel_value == panel &&
          entry.result.threads == threads) {
        return &entry.result;
      }
    }
    return nullptr;
  };

  for (const double panel : panels) {
    // Panel 1: execution time (modeled), the paper's headline series.
    {
      std::vector<std::string> headers = {"threads"};
      for (const auto& scheme : schemes) {
        headers.push_back(scheme);
      }
      Table time_table(PanelName(panel_label, panel) + " -- modeled time (ms)", headers);
      Table wall_table(PanelName(panel_label, panel) + " -- wall time (ms)", headers);
      for (const std::uint32_t threads : thread_counts) {
        std::vector<std::string> modeled_row = {std::to_string(threads)};
        std::vector<std::string> wall_row = {std::to_string(threads)};
        for (const auto& scheme : schemes) {
          const RunResult* result = find(scheme, panel, threads);
          modeled_row.push_back(result ? Table::Num(result->modeled_seconds * 1e3) : "-");
          wall_row.push_back(result ? Table::Num(result->wall_seconds * 1e3) : "-");
        }
        time_table.AddRow(modeled_row);
        wall_table.AddRow(wall_row);
      }
      os << (csv ? time_table.ToCsv() : time_table.ToAscii());
      os << (csv ? wall_table.ToCsv() : wall_table.ToAscii());
    }

    // Panel 2: abort breakdown (percent of speculative attempts). Legend
    // columns come from the named snapshot, the same source the JSON
    // serializer uses.
    {
      std::vector<std::string> headers = {"scheme", "threads"};
      for (const CounterView& entry : AbortBreakdown{}.Entries()) {
        headers.push_back(entry.label);
      }
      headers.push_back("total");
      Table abort_table(PanelName(panel_label, panel) + " -- aborts (% of attempts)",
                        headers);
      for (const auto& scheme : schemes) {
        for (const std::uint32_t threads : thread_counts) {
          const RunResult* result = find(scheme, panel, threads);
          if (result == nullptr) {
            continue;
          }
          const StatsSnapshot snapshot = result->stats.Snapshot();
          const double attempts = static_cast<double>(snapshot.TotalAttempts());
          std::vector<std::string> row = {scheme, std::to_string(threads)};
          for (const CounterView& entry : snapshot.aborts.Entries()) {
            row.push_back(Table::Pct(attempts > 0 ? entry.count / attempts : 0.0));
          }
          row.push_back(
              Table::Pct(attempts > 0 ? snapshot.aborts.Total() / attempts : 0.0));
          abort_table.AddRow(row);
        }
      }
      os << (csv ? abort_table.ToCsv() : abort_table.ToAscii());
    }

    // Panel 3: commit-type breakdown (percent of committed operations).
    {
      std::vector<std::string> headers = {"scheme", "threads"};
      for (const CounterView& entry : CommitBreakdown{}.Entries()) {
        headers.push_back(entry.label);
      }
      Table commit_table(PanelName(panel_label, panel) + " -- commits (%)", headers);
      for (const auto& scheme : schemes) {
        for (const std::uint32_t threads : thread_counts) {
          const RunResult* result = find(scheme, panel, threads);
          if (result == nullptr) {
            continue;
          }
          const StatsSnapshot snapshot = result->stats.Snapshot();
          const double commits = static_cast<double>(snapshot.commits.Total());
          std::vector<std::string> row = {scheme, std::to_string(threads)};
          for (const CounterView& entry : snapshot.commits.Entries()) {
            row.push_back(Table::Pct(commits > 0 ? entry.count / commits : 0.0));
          }
          commit_table.AddRow(row);
        }
      }
      os << (csv ? commit_table.ToCsv() : commit_table.ToAscii());
    }
  }
  return os.str();
}

}  // namespace rwle
