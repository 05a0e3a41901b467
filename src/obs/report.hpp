// `hydra report`: turns one run's JSONL trace (+ optional metrics JSON) into
// a self-contained human-readable report — convergence/contraction series,
// invariant-violation timeline, per-party send/deliver matrix, and the
// paper-bound vs. measured complexity table. The rendering logic lives in
// the library so tests can cover it; the `hydra report` subcommand is a thin
// wrapper.
#pragma once

#include <istream>
#include <ostream>
#include <string>

namespace hydra::obs {

struct ReportOptions {
  enum class Format { kMarkdown, kHtml };
  Format format = Format::kMarkdown;
  std::string title = "hydra run report";
};

/// Reads a JSONL trace from `trace` and renders a report to `out`.
/// `metrics_json` is the raw contents of the run's --metrics-json document
/// (may be empty: the spec/verdict sections are skipped then). Returns the
/// number of trace events consumed; 0 means the trace was empty/unreadable.
std::size_t render_report(std::istream& trace, const std::string& metrics_json,
                          const ReportOptions& options, std::ostream& out);

}  // namespace hydra::obs
