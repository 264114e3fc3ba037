// Renders the three panels of a paper figure (execution time, abort-rate
// breakdown, commit-type breakdown) from a scenario record, whose entries
// are indexed by (scheme, panel value, thread count). The JSON serializer
// writes the same record (result_serializer.h).
#ifndef RWLE_SRC_HARNESS_FIGURE_REPORT_H_
#define RWLE_SRC_HARNESS_FIGURE_REPORT_H_

#include <string>

#include "src/harness/result_serializer.h"

namespace rwle {

// Renders all panels under the manifest's title: per panel value, a time
// table (modeled + wall seconds per scheme x thread count), then abort and
// commit breakdowns. Panels and schemes appear in entry order, each panel
// labelled with the manifest's panel_label.
std::string RenderFigureReport(const ScenarioRecord& record, bool csv = false);

}  // namespace rwle

#endif  // RWLE_SRC_HARNESS_FIGURE_REPORT_H_
