#include "harness/perf.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/polygon.hpp"
#include "geometry/safe_area.hpp"
#include "geometry/vec.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"

// Build provenance for the bench JSON context block; the harness CMakeLists
// injects the real values, and the fallbacks keep out-of-tree builds
// compiling.
#ifndef HYDRA_GIT_DESCRIBE
#define HYDRA_GIT_DESCRIBE "unknown"
#endif
#ifndef HYDRA_BUILD_TYPE
#define HYDRA_BUILD_TYPE "unknown"
#endif

namespace hydra::harness {

namespace {

constexpr std::string_view kBenchSchema = "hydra-bench-v1";
constexpr std::string_view kPerfSchema = "hydra-perf-v1";
constexpr std::string_view kAgreebenchHeader = "agreebench workload=";

}  // namespace

// ---------------------------------------------------------------------------
// hydra-bench-v1 writer

std::string bench_json(std::string_view bench_name,
                       std::span<const BenchMetric> metrics,
                       const BenchContext& context) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kBenchSchema);
  w.kv("bench", bench_name);
  w.key("context");
  w.begin_object();
  if (context.empty()) {
    w.kv("git", HYDRA_GIT_DESCRIBE);
    w.kv("build", HYDRA_BUILD_TYPE);
  }
  for (const auto& [key, value] : context) w.kv(key, std::string_view{value});
  w.end_object();
  w.key("metrics");
  w.begin_array();
  for (const auto& m : metrics) {
    w.begin_object();
    w.kv("name", m.name);
    w.kv("unit", m.unit);
    w.kv("value", m.value);
    w.kv("repetitions", m.repetitions);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool write_bench_json(const std::string& path, std::string_view bench_name,
                      std::span<const BenchMetric> metrics,
                      const BenchContext& context) {
  return obs::write_document(path, bench_json(bench_name, metrics, context), "perf");
}

// ---------------------------------------------------------------------------
// Readers

std::optional<BenchDoc> parse_bench_json(std::string_view text) {
  const auto doc = obs::parse_json(text);
  if (!doc || doc->str("schema") != kBenchSchema) return std::nullopt;
  const obs::JsonValue& metrics = (*doc)["metrics"];
  if (metrics.kind() != obs::JsonValue::Kind::kArray) return std::nullopt;
  BenchDoc out;
  out.bench = doc->str("bench");
  for (const auto& [key, value] : (*doc)["context"].members()) {
    out.context.emplace_back(key, value.text());
  }
  for (const auto& m : metrics.items()) {
    if (m.str("name").empty()) return std::nullopt;
    out.metrics.push_back({.name = m.str("name"),
                           .unit = m.str("unit"),
                           .value = m.real("value"),
                           .repetitions = m.u64("repetitions")});
  }
  return out;
}

bool is_agreebench_output(std::string_view text) {
  return text.starts_with(kAgreebenchHeader);
}

std::optional<BenchDoc> parse_agreebench_output(std::string_view text,
                                                std::string* error) {
  const auto fail = [error](const char* why) -> std::optional<BenchDoc> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!is_agreebench_output(text)) return fail("not agreebench output");
  const auto name_start = kAgreebenchHeader.size();
  const std::string workload(
      text.substr(name_start, text.find_first_of(" \n", name_start) - name_start));
  if (workload.empty()) return fail("the header names no workload");

  BenchDoc out;
  out.bench = "agreebench";
  const auto stamp = text.find("\nstamp ");
  if (stamp == std::string_view::npos) return fail("no stamp line");
  std::istringstream stamp_line(
      std::string(text.substr(stamp + 1, text.find('\n', stamp + 1) - stamp - 1)));
  for (std::string token; stamp_line >> token;) {
    const auto eq = token.find('=');
    const std::string key = token.substr(0, eq);
    if (eq != std::string::npos && (key == "git" || key == "dirty" || key == "build")) {
      out.context.emplace_back(key, token.substr(eq + 1));
    }
  }

  // The result is the last line; a run that died or was cut short has none.
  std::string_view last = text.substr(0, text.find_last_not_of('\n') + 1);
  last.remove_prefix(last.find_last_of('\n') + 1);
  const auto result = obs::parse_json(last);
  if (!result || (*result)["correct"].kind() != obs::JsonValue::Kind::kBool) {
    return fail("no result line");
  }
  if (result->str("correct") != "true") {
    return fail("the result line says \"correct\": false");
  }
  const auto& metrics = (*result)["metrics"].members();
  if (metrics.empty()) return fail("the result line has no metrics");
  for (const auto& [name, body] : metrics) {
    const auto value = body["value"].as_double();
    if (!value) return fail("a metric has no value");
    out.metrics.push_back({.name = workload + "/" + name,
                           .unit = body.str("unit"),
                           .value = *value,
                           .repetitions = 1});
  }
  return out;
}

BenchDoc median_of(std::span<const BenchDoc> docs) {
  BenchDoc out;
  if (docs.empty()) return out;
  out.bench = docs.front().bench;
  out.context = docs.front().context;
  std::vector<Stats> values;
  for (const auto& doc : docs) {
    for (const auto& m : doc.metrics) {
      auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                             [&](const BenchMetric& o) { return o.name == m.name; });
      if (it == out.metrics.end()) {
        out.metrics.push_back({.name = m.name, .unit = m.unit});
        values.emplace_back();
        it = std::prev(out.metrics.end());
      }
      values[static_cast<std::size_t>(it - out.metrics.begin())].add(m.value);
    }
  }
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    out.metrics[i].value = values[i].percentile(50.0).value_or(0.0);
    out.metrics[i].repetitions = values[i].count();
  }
  return out;
}

std::optional<std::vector<PhaseRow>> parse_perf_json(std::string_view text) {
  const auto doc = obs::parse_json(text);
  if (!doc || doc->str("schema") != kPerfSchema) return std::nullopt;
  const obs::JsonValue& phases = (*doc)["phases"];
  if (phases.kind() != obs::JsonValue::Kind::kObject) return std::nullopt;

  std::vector<PhaseRow> rows;
  for (const auto& [name, body] : phases.members()) {
    const auto count = body["count"].as_u64();
    const auto total = body["total_ns"].as_u64();
    const auto self = body["self_ns"].as_u64();
    if (!count || !total || !self) return std::nullopt;
    rows.push_back({.name = name,
                    .count = *count,
                    .total_ns = *total,
                    .self_ns = *self,
                    .min_ns = body.u64("min_ns"),
                    .max_ns = body.u64("max_ns"),
                    .buckets = body["buckets"].u64s()});
  }
  return rows;
}

std::optional<std::vector<PhaseRow>> load_perf_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    HYDRA_LOG_ERROR("perf: cannot read %s", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_perf_json(buf.str());
}

// ---------------------------------------------------------------------------
// Phase report

namespace {

/// Approximate latency percentile of a phase's profiler buckets.
double phase_percentile(const PhaseRow& row, double p) {
  return obs::log2_bucket_percentile(row.buckets, p, obs::Profiler::kBucketShift);
}

std::string fmt_us(double ns) { return fmt(ns / 1e3); }
std::string fmt_ms(double ns) { return fmt(ns / 1e6); }

}  // namespace

std::string render_phase_report(std::vector<PhaseRow> rows, std::size_t top_k) {
  std::sort(rows.begin(), rows.end(), [](const PhaseRow& a, const PhaseRow& b) {
    return a.self_ns != b.self_ns ? a.self_ns > b.self_ns : a.name < b.name;
  });
  double self_sum = 0.0;
  for (const auto& r : rows) self_sum += static_cast<double>(r.self_ns);

  Table table({"phase", "count", "total_ms", "self_ms", "self%", "avg_us",
               "~p50_us", "~p95_us", "max_us"});
  std::size_t shown = 0;
  for (const auto& r : rows) {
    if (top_k != 0 && shown == top_k) break;
    ++shown;
    const auto count = static_cast<double>(r.count);
    const auto total = static_cast<double>(r.total_ns);
    const auto self = static_cast<double>(r.self_ns);
    table.row({r.name, fmt(r.count), fmt_ms(total), fmt_ms(self),
               fmt(self_sum > 0.0 ? 100.0 * self / self_sum : 0.0),
               fmt_us(r.count > 0 ? total / count : 0.0),
               fmt_us(phase_percentile(r, 50.0)),
               fmt_us(phase_percentile(r, 95.0)),
               fmt_us(static_cast<double>(r.max_ns))});
  }
  std::ostringstream out;
  out << table.render();
  if (top_k != 0 && rows.size() > shown) {
    out << "(" << rows.size() - shown << " more phases below the top " << shown
        << "; self% is the share of the summed self time; p50/p95 are "
           "approximate, from log2 buckets)\n";
  } else {
    out << "(self% is the share of the summed self time; p50/p95 are "
           "approximate, from log2 buckets)\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Delta table

std::string render_delta_table(std::span<const BenchMetric> current,
                               std::span<const BenchMetric> baseline,
                               double budget,
                               std::vector<std::string>* regressions) {
  Table table({"metric", "unit", "baseline", "current", "delta", "ok"});
  for (const auto& base : baseline) {
    const auto it = std::find_if(
        current.begin(), current.end(),
        [&](const BenchMetric& m) { return m.name == base.name; });
    if (it == current.end()) {
      // A kernel silently dropped from the bench must not slide past the
      // gate looking like a pass.
      table.row({base.name, base.unit, fmt(base.value), "-", "missing",
                 fmt_ok(false)});
      if (regressions != nullptr) regressions->push_back(base.name + " (missing)");
      continue;
    }
    // Work counts repeat exactly on the simulator, so any change to one is
    // real; every other metric gets the budget. Above a zero baseline no
    // budget is left, so any increase regresses.
    const bool exact = base.unit == "count" || base.unit == "B";
    const double delta = base.value > 0.0        ? (it->value - base.value) / base.value
                         : it->value > base.value ? HUGE_VAL
                                                  : 0.0;
    const bool ok = exact ? it->value == base.value : delta <= budget;
    const auto shown = [exact](double v) {
      char digits[32];
      std::snprintf(digits, sizeof digits, "%.15g", v);
      return exact ? std::string(digits) : fmt(v);
    };
    char buf[32];
    if (exact) {
      std::snprintf(buf, sizeof buf, "%+.3g", it->value - base.value);
    } else {
      std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * delta);
    }
    table.row({base.name, base.unit, shown(base.value), shown(it->value), buf,
               fmt_ok(ok)});
    if (!ok && regressions != nullptr) regressions->push_back(base.name);
  }
  for (const auto& m : current) {
    const bool known = std::any_of(
        baseline.begin(), baseline.end(),
        [&](const BenchMetric& b) { return b.name == m.name; });
    if (!known) {
      table.row({m.name, m.unit, "-", fmt(m.value), "new", fmt_ok(true)});
    }
  }
  return table.render();
}

// ---------------------------------------------------------------------------
// Kernel measurement

namespace {

/// Seconds per repetition of one kernel and the timed repetitions behind it.
struct TimedRate {
  double seconds_per_rep = 0.0;
  std::uint64_t repetitions = 0;  ///< total timed reps across all samples
};

std::vector<geo::Vec> random_points(Rng& rng, std::size_t n, std::size_t dim,
                                    double radius) {
  std::vector<geo::Vec> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    geo::Vec v(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      v[d] = rng.next_double(-radius, radius);
    }
    pts.push_back(std::move(v));
  }
  return pts;
}

BenchMetric per_point_metric(std::string name, const TimedRate& rate,
                             std::size_t points) {
  return BenchMetric{.name = std::move(name),
                     .unit = "ns/point",
                     .value = rate.seconds_per_rep * 1e9 /
                              static_cast<double>(points),
                     .repetitions = rate.repetitions};
}

}  // namespace

std::vector<BenchMetric> measure_geometry_kernels() {
  // One fixed seed: the inputs (not the timings) are identical run to run
  // and across machines, so baseline deltas measure the code, not the data.
  Rng rng(0x9e04'5afe'a4ea'0001ULL);

  struct Kernel {
    const char* name;
    std::size_t points;
    std::function<void()> fn;
  };
  std::vector<Kernel> kernels;

  // 2D convex hull (Andrew's monotone chain) over 64 points.
  const auto hull_pts = random_points(rng, 64, 2, 10.0);
  kernels.push_back({"geo.hull2d", hull_pts.size(), [&hull_pts] {
    const auto hull = geo::ConvexPolygon2D::hull_of(hull_pts);
    if (hull.empty()) std::abort();  // keeps the call observable
  }});

  // Polygon intersection (Sutherland-Hodgman clipping), two 16-gons.
  const auto clip_a = geo::ConvexPolygon2D::hull_of(random_points(rng, 16, 2, 10.0));
  auto shifted = random_points(rng, 16, 2, 10.0);
  for (auto& p : shifted) p[0] += 3.0;
  const auto clip_b = geo::ConvexPolygon2D::hull_of(shifted);
  kernels.push_back({"geo.clip",
                     clip_a.vertices().size() + clip_b.vertices().size(),
                     [&clip_a, &clip_b] {
    const auto isect = clip_a.intersect(clip_b);
    if (isect.vertices().size() > 64) std::abort();
  }});

  // Half-space membership: one polygon, a batch of 64 query points.
  const auto poly = geo::ConvexPolygon2D::hull_of(random_points(rng, 16, 2, 10.0));
  const auto queries = random_points(rng, 64, 2, 12.0);
  kernels.push_back({"geo.halfspace", queries.size(), [&poly, &queries] {
    std::size_t inside = 0;
    for (const auto& q : queries) inside += poly.contains(q) ? 1 : 0;
    if (inside > queries.size()) std::abort();
  }});

  // LP membership (simplex feasibility), dim 4, 12-point hull.
  const auto lp_pts = random_points(rng, 12, 4, 10.0);
  geo::Vec lp_q(4);  // near the centroid: the feasible (slow) LP path
  for (const auto& p : lp_pts) {
    for (std::size_t d = 0; d < 4; ++d) lp_q[d] += p[d] / 12.0;
  }
  kernels.push_back({"geo.lp", lp_pts.size(), [&lp_pts, &lp_q] {
    if (!geo::in_convex_hull(lp_pts, lp_q)) std::abort();
  }});

  // Full 2D safe-area computation (C(8,2) = 28 restriction clips).
  const auto sa2_pts = random_points(rng, 8, 2, 10.0);
  kernels.push_back({"geo.safe_area_2d", sa2_pts.size(), [&sa2_pts] {
    const auto area = geo::SafeArea::compute(sa2_pts, 2);
    if (area.empty()) std::abort();
  }});

  // 3D safe area via the sampled-support kernel (16 directions keeps the
  // calibration loop fast; the ablation bench sweeps direction counts).
  const auto sa3_pts = random_points(rng, 6, 3, 10.0);
  geo::SafeAreaOptions sa3_opts;
  sa3_opts.support_directions = 16;
  kernels.push_back({"geo.safe_area_3d", sa3_pts.size(), [&sa3_pts, &sa3_opts] {
    const auto area = geo::SafeArea::compute(sa3_pts, 1, sa3_opts);
    if (area.empty()) std::abort();
  }});

  // Calibrate each kernel's inner repetition count once, then take the
  // sample rounds ROUND-ROBIN across kernels: CPU-frequency / contention
  // noise arrives in multi-millisecond epochs, so back-to-back samples of
  // one kernel would all land in the same epoch and its minimum would track
  // the epoch, not the code. Interleaving spreads every kernel's samples
  // over the full measurement window.
  using Clock = std::chrono::steady_clock;
  constexpr double kMinSampleS = 0.01;
  constexpr int kRounds = 9;
  std::vector<std::uint64_t> reps(kernels.size(), 1);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (;;) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < reps[k]; ++i) kernels[k].fn();
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (s >= 2.0 * kMinSampleS || reps[k] >= (1ULL << 30)) break;
      reps[k] *= 2;
    }
  }
  std::vector<Stats> per_rep(kernels.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const auto t0 = Clock::now();
      for (std::uint64_t r = 0; r < reps[k]; ++r) kernels[k].fn();
      per_rep[k].add(std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(reps[k]));
    }
  }

  std::vector<BenchMetric> out;
  out.reserve(kernels.size());
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    // Min, not mean or median: scheduler preemption and frequency dips only
    // ever INFLATE a sample, so the minimum is the most repeatable estimate
    // of the code's cost.
    const TimedRate rate{.seconds_per_rep = per_rep[k].summary().min,
                         .repetitions = reps[k] * kRounds};
    out.push_back(per_point_metric(kernels[k].name, rate, kernels[k].points));
  }
  return out;
}

}  // namespace hydra::harness
