// Performance-measurement toolkit shared by the bench binaries and the `hydra
// perf` subcommand, which is also the CI regression gate:
//
//   * BenchMetric + the unified bench JSON schema ("hydra-bench-v1"): every
//     bench that measures time emits the same shape, so one parser, one
//     delta renderer and one gate cover all of them;
//   * measure_geometry_kernels(): ns/point for each geometry kernel on
//     fixed, seed-deterministic inputs — the workload behind
//     `bench_geometry_kernels --json` and `hydra perf`;
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
// Determinism: metric VALUES are wall clock and vary run to run — that is
// the point; they live in these side-channel files and are compared against
// checked-in baselines with a relative budget, never byte-compared. Phase
// COUNTS in a perf profile are deterministic per (spec, seed) on the
// simulator backend (tested by test_prof.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hydra::harness {

/// One measured scalar in the unified bench JSON schema.
struct BenchMetric {
  std::string name;             ///< e.g. "geo.hull2d"
  std::string unit;             ///< e.g. "ns/point" — lower is always better
  double value = 0.0;
  std::uint64_t repetitions = 0;  ///< timed repetitions behind `value`
};

/// Serializes the hydra-bench-v1 document. The context block records
/// `git describe` and the build type captured at compile time.
[[nodiscard]] std::string bench_json(std::string_view bench_name,
                                     std::span<const BenchMetric> metrics);

/// bench_json() to a file; false (with a log line) on I/O failure.
bool write_bench_json(const std::string& path, std::string_view bench_name,
                      std::span<const BenchMetric> metrics);

struct BenchDoc {
  std::string bench;
  std::vector<BenchMetric> metrics;
};

/// Parses a hydra-bench-v1 document. nullopt on schema mismatch or malformed
/// input (never throws).
[[nodiscard]] std::optional<BenchDoc> parse_bench_json(std::string_view doc);

/// Reads and parses a bench JSON file. nullopt on I/O or parse failure.
[[nodiscard]] std::optional<BenchDoc> load_bench_json(const std::string& path);

/// Min-of-samples timing loop: calibrates an inner repetition count until
/// one sample comfortably exceeds `min_sample_s`, takes `samples` samples,
/// and reports the MINIMUM (via harness::Stats::summary()) — noise only ever
/// inflates a sample, so the minimum is the repeatable estimate a
/// tight-budget regression gate needs.
struct TimedRate {
  double seconds_per_rep = 0.0;
  std::uint64_t repetitions = 0;  ///< total timed reps across all samples
};
[[nodiscard]] TimedRate time_rate(const std::function<void()>& fn,
                                  double min_sample_s = 0.04, int samples = 9);

/// ns/point for every geometry kernel (hull2d, clip, halfspace batch, LP
/// membership, safe-area 2D/3D) on fixed seed-deterministic inputs. This is
/// the shared workload of `bench_geometry_kernels --json` and `hydra perf`.
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

/// Per-metric current-vs-baseline table. A metric regresses when
/// current > baseline * (1 + budget); a baseline metric missing from
/// `current` also counts (a silently dropped kernel must not pass the gate).
/// Regressing metric names are appended to `regressions` when non-null.
[[nodiscard]] std::string render_delta_table(
    std::span<const BenchMetric> current, std::span<const BenchMetric> baseline,
    double budget, std::vector<std::string>* regressions = nullptr);

}  // namespace hydra::harness
