// Performance-measurement toolkit behind `hydra perf`, which is also the CI
// regression gate:
//
//   * BenchMetric + the unified bench JSON schema ("hydra-bench-v1"), the
//     one shape the delta renderer and the gate read;
//   * parse_agreebench_output(): captured agreebench output as metrics named
//     "<workload>/<metric>";
//   * measure_geometry_kernels(): ns/point for each geometry kernel on
//     fixed, seed-deterministic inputs — the live measurement of `hydra perf`;
//   * the "hydra-perf-v1" phase-profile parser + report renderer for
//     profiles written by RunSpec::perf_out (obs::Profiler::to_json()).
//
// Schemas (one JSON object per file, written by obs::JsonWriter so doubles
// round-trip byte-exactly):
//
//   hydra-bench-v1   {"schema":"hydra-bench-v1","bench":"<name>",
//                     "context":{"git":"<describe>","build":"<type>"},
//                     "metrics":[{"name":"geo.hull2d","unit":"ns/point",
//                                 "value":12.3,"repetitions":4096},...]}
//
//   hydra-perf-v1    {"schema":"hydra-perf-v1",<spec echo>,
//                     "phases":{"aa.safe_area":{"count":...,"total_ns":...,
//                       "self_ns":...,"min_ns":...,"max_ns":...,
//                       "buckets":[...]},...}}
//
// Determinism: wall-clock metric VALUES vary run to run; they are compared
// against checked-in baselines with a relative budget, never byte-compared.
// Work counts (unit "count" or "B") that agreebench makes deterministic on
// the simulator are compared exactly. Phase COUNTS in a perf profile are
// deterministic per (spec, seed) on the simulator backend (tested by
// test_prof.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hydra::harness {

/// One measured scalar in the unified bench JSON schema.
struct BenchMetric {
  std::string name;             ///< e.g. "geo.hull2d"
  std::string unit;             ///< e.g. "ns/point" — lower is always better
  double value = 0.0;
  std::uint64_t repetitions = 0;  ///< timed repetitions (or runs) behind `value`
};

/// The "context" block of a bench document, as ordered key/value pairs.
using BenchContext = std::vector<std::pair<std::string, std::string>>;

/// Serializes the hydra-bench-v1 document. An empty context records this
/// build's: `git describe` and the build type, captured at compile time.
[[nodiscard]] std::string bench_json(std::string_view bench_name,
                                     std::span<const BenchMetric> metrics,
                                     const BenchContext& context = {});

/// bench_json() to a file; false (with a log line) on I/O failure.
bool write_bench_json(const std::string& path, std::string_view bench_name,
                      std::span<const BenchMetric> metrics,
                      const BenchContext& context = {});

struct BenchDoc {
  std::string bench;
  BenchContext context;  ///< the document's context block, or agreebench's stamp
  std::vector<BenchMetric> metrics;
};

/// Parses a hydra-bench-v1 document, context included. nullopt on schema
/// mismatch or malformed input (never throws).
[[nodiscard]] std::optional<BenchDoc> parse_bench_json(std::string_view doc);

/// True when `text` starts with agreebench's header line
/// ("agreebench workload=...").
[[nodiscard]] bool is_agreebench_output(std::string_view text);

/// Parses one captured agreebench run (its stdout). The header line names
/// the workload; the final JSON line gives `correct` and every metric at full
/// precision (the printed `metric` lines round to 6 digits and are not read).
/// Metrics are named "<workload>/<metric>" with repetitions = 1; the `stamp`
/// line's git, dirty and build become the context. nullopt, with the reason
/// in `error`, when the header or result line is missing or malformed or the
/// result says `"correct": false`.
[[nodiscard]] std::optional<BenchDoc> parse_agreebench_output(std::string_view text,
                                                              std::string* error);

/// Merges documents metric by metric: a metric's value is the median of the
/// documents that carry it (nearest rank, so the lower middle value for an
/// even count) and its repetitions the number of those documents. Metrics keep their
/// first-seen order; bench name and context come from the first document.
[[nodiscard]] BenchDoc median_of(std::span<const BenchDoc> docs);

/// ns/point for every geometry kernel (hull2d, clip, halfspace batch, LP
/// membership, safe-area 2D/3D) on fixed seed-deterministic inputs: the live
/// measurement of `hydra perf`.
[[nodiscard]] std::vector<BenchMetric> measure_geometry_kernels();

/// One phase parsed back from a hydra-perf-v1 profile.
struct PhaseRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::vector<std::uint64_t> buckets;  ///< log2; possibly trailing-trimmed
};

/// Parses the "phases" object of a hydra-perf-v1 document. nullopt on schema
/// mismatch or malformed input.
[[nodiscard]] std::optional<std::vector<PhaseRow>> parse_perf_json(
    std::string_view doc);

/// Reads and parses a perf JSON file. nullopt on I/O or parse failure.
[[nodiscard]] std::optional<std::vector<PhaseRow>> load_perf_json(
    const std::string& path);

/// Phase-attribution table sorted by self time (descending): count, total,
/// self, self-share, mean, approximate p50/p95 (nearest rank over the log2
/// buckets, geometric bucket midpoints) and max. top_k = 0 renders all rows.
[[nodiscard]] std::string render_phase_report(std::vector<PhaseRow> rows,
                                              std::size_t top_k = 0);

/// Per-metric current-vs-baseline table. A work count (baseline unit "count"
/// or "B") regresses unless current == baseline exactly; any other metric
/// regresses when current > baseline * (1 + budget), so any value above a
/// zero baseline does. A baseline metric missing from `current` also counts
/// (a silently dropped kernel must not pass the gate). Regressing metric
/// names are appended to `regressions` when non-null.
[[nodiscard]] std::string render_delta_table(
    std::span<const BenchMetric> current, std::span<const BenchMetric> baseline,
    double budget, std::vector<std::string>* regressions = nullptr);

}  // namespace hydra::harness
