#include "obs/report.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "domain/domain.hpp"
#include "net/wire_stats.hpp"
#include "obs/json.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"

namespace hydra::obs {
namespace {

constexpr std::size_t kMaxViolationRows = 50;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct ViolationRow {
  std::int64_t t = 0;
  std::int64_t party = 0;
  std::string monitor;
  std::int64_t iteration = 0;
  std::int64_t cause = 0;
  std::string detail;
};

/// One "fault.<kind>" trace event (src/faults/): scheduled timeline entries
/// (crash/recover/partition/heal) and per-message drop/dup records.
struct FaultRow {
  std::int64_t t = 0;
  std::string kind;
  std::int64_t party = -1;  ///< from-party for drop/dup; -1 = whole network
  std::int64_t peer = -1;   ///< to-party for drop/dup
  std::int64_t cause = 0;   ///< send-event id for drop/dup
  std::string detail;
};

/// Everything the renderers need, accumulated in one pass over the trace.
struct TraceSummary {
  std::size_t events = 0;
  /// Lines that are not an event object, or that name a party id not below n.
  std::size_t skipped = 0;
  std::int64_t max_party = -1;
  std::int64_t end_time = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> send_matrix;
  std::map<std::int64_t, std::uint64_t> sent_msgs_by_party;
  std::map<std::int64_t, std::uint64_t> sent_bytes_by_party;
  std::map<std::int64_t, std::uint64_t> delivered_by_party;
  std::vector<std::pair<std::int64_t, double>> diameter_series;
  std::vector<ViolationRow> violations;
  std::uint64_t total_violations = 0;
  std::int64_t max_iteration = 0;
  /// Meta "domain" key; empty on Euclidean (and pre-domain-layer) traces.
  std::string domain;
  /// Latest per-party `value` event: party -> (iteration, coordinates).
  /// Collected only for non-Euclidean traces.
  std::map<std::int64_t, std::pair<std::int64_t, std::vector<double>>> last_values;
  std::vector<FaultRow> faults;
  std::uint64_t total_faults = 0;
  std::map<std::string, std::uint64_t> faults_by_kind;
};

/// True when every party id the event names is below n. The send/deliver
/// matrix has a row and a column per party, so one id far past n would
/// otherwise cost the report time and memory quadratic in that id.
bool parties_below(const JsonValue& e, std::uint64_t n) {
  for (const auto& [key, id] : e.members()) {
    if ((key == "from" || key == "to" || key == "party") &&
        id.as_u64().value_or(n) >= n) {
      return false;
    }
  }
  return true;
}

/// `n` bounds the party ids until a meta line gives its own (0 = unchecked).
TraceSummary scan_trace(std::istream& in, std::uint64_t n) {
  TraceSummary s;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto e = parse_json(line);
    if (!e || e->str("ev").empty()) {
      ++s.skipped;
      continue;
    }
    const std::string& ev = e->str("ev");
    if (ev == "meta") {  // a merged trace holds one per process, all alike
      n = (*e)["n"].as_u64().value_or(n);
      s.domain = e->str("domain");
      continue;
    }
    if (n != 0 && !parties_below(*e, n)) {
      ++s.skipped;
      continue;
    }
    ++s.events;
    s.end_time = std::max(s.end_time, e->i64("t"));
    if (ev == "send") {
      const auto from = e->i64("from");
      const auto to = e->i64("to");
      s.max_party = std::max({s.max_party, from, to});
      s.sends += 1;
      const auto bytes = e->u64("bytes");
      s.send_bytes += bytes;
      s.send_matrix[{from, to}] += 1;
      // Per-party tallies count wire traffic only: self-sends stay visible
      // on the matrix diagonal but are excluded here so the complexity
      // section compares like with like against the (n-1)-fanout bound.
      if (from != to) {
        s.sent_msgs_by_party[from] += 1;
        s.sent_bytes_by_party[from] += bytes;
      }
    } else if (ev == "deliver") {
      const auto to = e->i64("to");
      s.max_party = std::max({s.max_party, e->i64("from"), to});
      s.delivered_by_party[to] += 1;
    } else if (ev == "scalar") {
      if (e->str("name") == "honest_diameter") {
        s.diameter_series.emplace_back(e->i64("t"), e->real("value"));
      }
    } else if (ev == "round_end") {
      s.max_iteration = std::max(s.max_iteration, e->i64("it"));
    } else if (ev == "value") {
      if (!s.domain.empty()) {
        s.last_values[e->i64("party")] = {e->i64("it"), (*e)["v"].reals()};
      }
    } else if (ev == "invariant.violation") {
      s.total_violations += 1;
      if (s.violations.size() < kMaxViolationRows) {
        s.violations.push_back(ViolationRow{e->i64("t"), e->i64("party"),
                                            e->str("monitor"), e->i64("it"),
                                            e->i64("cause"), e->str("detail")});
      }
    } else if (ev.rfind("fault.", 0) == 0) {
      s.total_faults += 1;
      s.faults_by_kind[ev.substr(6)] += 1;
      if (s.faults.size() < kMaxViolationRows) {
        FaultRow row;
        row.t = e->i64("t");
        row.kind = ev.substr(6);
        row.party = (*e)["party"].as_i64().value_or(-1);
        row.peer = (*e)["peer"].as_i64().value_or(-1);
        row.cause = e->i64("cause");
        row.detail = e->str("detail");
        s.faults.push_back(std::move(row));
      }
    }
  }
  // Scheduled timeline entries are emitted up front with future timestamps;
  // per-message drops interleave in send order. Present one timeline.
  std::stable_sort(s.faults.begin(), s.faults.end(),
                   [](const FaultRow& a, const FaultRow& b) { return a.t < b.t; });
  return s;
}

// ---------------------------------------------------------------------------
// Renderers: one markdown, one single-file HTML, both driven by the same
// section/table/para calls so the report content cannot drift between them.

class Renderer {
 public:
  explicit Renderer(std::ostream& out) : out_(out) {}
  virtual ~Renderer() = default;
  virtual void begin(const std::string& title) = 0;
  virtual void section(const std::string& title) = 0;
  virtual void para(const std::string& text) = 0;
  virtual void table(const std::vector<std::string>& headers,
                     const std::vector<std::vector<std::string>>& rows) = 0;
  /// A (t, value) line chart; the markdown renderer falls back to a table.
  virtual void chart(const std::string& caption,
                     const std::vector<std::pair<std::int64_t, double>>& series) = 0;
  virtual void end() = 0;

 protected:
  std::ostream& out_;
};

class MarkdownRenderer final : public Renderer {
 public:
  using Renderer::Renderer;
  void begin(const std::string& title) override { out_ << "# " << title << "\n"; }
  void section(const std::string& title) override {
    out_ << "\n## " << title << "\n\n";
  }
  void para(const std::string& text) override { out_ << text << "\n"; }
  void table(const std::vector<std::string>& headers,
             const std::vector<std::vector<std::string>>& rows) override {
    out_ << "|";
    for (const auto& h : headers) out_ << " " << h << " |";
    out_ << "\n|";
    for (std::size_t i = 0; i < headers.size(); ++i) out_ << "---|";
    out_ << "\n";
    for (const auto& row : rows) {
      out_ << "|";
      for (const auto& cell : row) out_ << " " << cell << " |";
      out_ << "\n";
    }
  }
  void chart(const std::string& caption,
             const std::vector<std::pair<std::int64_t, double>>& series) override {
    para(caption);
    std::vector<std::vector<std::string>> rows;
    rows.reserve(series.size());
    for (const auto& [t, v] : series) {
      rows.push_back({std::to_string(t), fmt_double(v)});
    }
    table({"t", "value"}, rows);
  }
  void end() override {}
};

class HtmlRenderer final : public Renderer {
 public:
  using Renderer::Renderer;

  void begin(const std::string& title) override {
    out_ << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>"
         << esc(title) << "</title>\n<style>\n"
         << "body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}\n"
         << "table{border-collapse:collapse;margin:0.5em 0}\n"
         << "td,th{border:1px solid #999;padding:2px 8px;font-size:90%}\n"
         << "th{background:#eee}\n"
         << "</style></head><body>\n<h1>" << esc(title) << "</h1>\n";
  }
  void section(const std::string& title) override {
    out_ << "<h2>" << esc(title) << "</h2>\n";
  }
  void para(const std::string& text) override {
    out_ << "<p>" << esc(text) << "</p>\n";
  }
  void table(const std::vector<std::string>& headers,
             const std::vector<std::vector<std::string>>& rows) override {
    out_ << "<table><tr>";
    for (const auto& h : headers) out_ << "<th>" << esc(h) << "</th>";
    out_ << "</tr>\n";
    for (const auto& row : rows) {
      out_ << "<tr>";
      for (const auto& cell : row) out_ << "<td>" << esc(cell) << "</td>";
      out_ << "</tr>\n";
    }
    out_ << "</table>\n";
  }
  void chart(const std::string& caption,
             const std::vector<std::pair<std::int64_t, double>>& series) override {
    para(caption);
    if (series.size() < 2) return;
    // Inline SVG polyline, y flipped (SVG grows downward), 10px padding.
    constexpr double kW = 640.0, kH = 240.0, kPad = 10.0;
    double tmin = 1e300, tmax = -1e300, vmin = 1e300, vmax = -1e300;
    for (const auto& [t, v] : series) {
      tmin = std::min(tmin, static_cast<double>(t));
      tmax = std::max(tmax, static_cast<double>(t));
      vmin = std::min(vmin, v);
      vmax = std::max(vmax, v);
    }
    const double tspan = tmax > tmin ? tmax - tmin : 1.0;
    const double vspan = vmax > vmin ? vmax - vmin : 1.0;
    out_ << "<svg width=\"" << kW << "\" height=\"" << kH
         << "\" style=\"border:1px solid #ccc\"><polyline fill=\"none\" "
            "stroke=\"#06c\" stroke-width=\"2\" points=\"";
    for (const auto& [t, v] : series) {
      const double x =
          kPad + (static_cast<double>(t) - tmin) / tspan * (kW - 2 * kPad);
      const double y = kH - kPad - (v - vmin) / vspan * (kH - 2 * kPad);
      out_ << fmt_double(x) << "," << fmt_double(y) << " ";
    }
    out_ << "\"/></svg>\n<p><small>y: " << fmt_double(vmin) << " … "
         << fmt_double(vmax) << ", x: " << tmin << " … " << tmax
         << " ticks</small></p>\n";
  }
  void end() override { out_ << "</body></html>\n"; }

 private:
  static std::string esc(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
      switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        default: out.push_back(c);
      }
    }
    return out;
  }
};

/// The members of a flat metrics block, one row each, sorted by key.
void kv_table(Renderer& r, const JsonValue& block) {
  std::map<std::string, std::string> sorted;
  for (const auto& [k, v] : block.members()) sorted.emplace(k, v.text());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(sorted.size());
  for (const auto& [k, v] : sorted) rows.push_back({k, v});
  r.table({"key", "value"}, rows);
}

}  // namespace

std::size_t render_report(std::istream& trace, const std::string& metrics_json,
                          const ReportOptions& options, std::ostream& out) {
  const JsonValue metrics = parse_json(metrics_json).value_or(JsonValue{});
  const JsonValue& spec = metrics["spec"];
  const JsonValue& verdict = metrics["verdict"];
  const JsonValue& monitor = metrics["monitor"];
  const JsonValue& totals = metrics["totals"];
  const JsonValue& health = metrics["transport_health"];
  const JsonValue& progress = metrics["progress"];
  const auto prog_finished = progress["finished"].u64s();
  const auto prog_crashed = progress["crash_stopped"].u64s();
  const auto prog_events = progress["events"].u64s();
  const auto prog_last = progress["last_progress"].u64s();

  const TraceSummary s = scan_trace(trace, spec.u64("n"));

  MarkdownRenderer md(out);
  HtmlRenderer html(out);
  Renderer& r = options.format == ReportOptions::Format::kHtml
                    ? static_cast<Renderer&>(html)
                    : static_cast<Renderer&>(md);

  r.begin(options.title);
  r.para(std::to_string(s.events) + " trace events over " +
         std::to_string(s.end_time) + " virtual ticks, " +
         std::to_string(s.sends) + " sends (" + std::to_string(s.send_bytes) +
         " bytes), max iteration " + std::to_string(s.max_iteration) + "." +
         (s.skipped > 0 ? " " + std::to_string(s.skipped) +
                              " line(s) skipped: not an event object, or a "
                              "party id not below n."
                        : ""));

  if (!spec.members().empty()) {
    r.section("Run spec");
    kv_table(r, spec);
  }
  if (!verdict.members().empty()) {
    r.section("Oracle verdict");
    kv_table(r, verdict);
  }

  if (s.total_faults > 0) {
    r.section("Fault timeline");
    std::string kinds;
    for (const auto& [kind, count] : s.faults_by_kind) {
      if (!kinds.empty()) kinds += ", ";
      kinds += kind + " ×" + std::to_string(count);
    }
    r.para(std::to_string(s.total_faults) +
           " injected fault event(s) (docs/ROBUSTNESS.md): " + kinds + ".");
    std::vector<std::vector<std::string>> rows;
    for (const auto& f : s.faults) {
      rows.push_back({std::to_string(f.t), f.kind,
                      f.party >= 0 ? std::to_string(f.party) : "-",
                      f.peer >= 0 ? std::to_string(f.peer) : "-",
                      f.cause != 0 ? std::to_string(f.cause) : "-", f.detail});
    }
    r.table({"t", "fault", "party", "peer", "cause", "detail"}, rows);
    if (s.total_faults > s.faults.size()) {
      r.para("(showing the first " + std::to_string(s.faults.size()) + " of " +
             std::to_string(s.total_faults) + ")");
    }
  }

  // Watchdog snapshot: present only for thread-backend runs (the simulator
  // reports no per-party progress — quiescence detection makes it moot).
  if (!prog_finished.empty()) {
    r.section("Party progress (thread backend)");
    std::string summary = "Backend '" + progress.str("backend") + "', " +
                          progress.str("wall_ms") + " ms wall clock";
    if (progress.str("timed_out") == "true") {
      const std::string& detail = progress.str("timeout_detail");
      summary += " — TIMED OUT" + (detail.empty() ? "" : ": " + detail);
    }
    r.para(summary + ".");
    const auto at = [](const std::vector<std::uint64_t>& v, std::size_t id) {
      return id < v.size() ? v[id] : std::uint64_t{0};
    };
    std::vector<std::vector<std::string>> rows;
    for (std::size_t id = 0; id < prog_finished.size(); ++id) {
      rows.push_back({std::to_string(id), at(prog_finished, id) != 0 ? "yes" : "no",
                      at(prog_crashed, id) != 0 ? "yes" : "no",
                      std::to_string(at(prog_events, id)),
                      std::to_string(at(prog_last, id))});
    }
    r.table({"party", "finished", "crash-stopped", "events", "last progress (t)"},
            rows);
  }

  // Socket-link health: the hardened-ingress drop counters (totals block;
  // nonzero means a peer sent frames that failed authentication or decode)
  // plus the connection/frame/queue counters and latency histograms the
  // socket transport exports (metrics "transport_health", socket runs only).
  const std::uint64_t auth_dropped = totals.u64("frames_auth_dropped");
  const std::uint64_t decode_dropped = totals.u64("frames_decode_dropped");
  if (!health.members().empty() || auth_dropped != 0 || decode_dropped != 0) {
    r.section("Transport health (socket links)");
    r.para("Frames dropped by hardened ingress: " + std::to_string(auth_dropped) +
           " auth (sender identity mismatch), " + std::to_string(decode_dropped) +
           " decode (malformed/handshake reject)." +
           (auth_dropped + decode_dropped > 0
                ? " Nonzero drops on a healthy deployment indicate a"
                  " misbehaving or mismatched peer."
                : ""));
    if (!health.members().empty()) {
      r.table({"counter", "value"},
              {{"connect attempts", std::to_string(health.u64("connect_attempts"))},
               {"connects", std::to_string(health.u64("connects"))},
               {"accepts (bound at HELLO)", std::to_string(health.u64("accepts"))},
               {"frames sent", std::to_string(health.u64("frames_sent"))},
               {"writer flushes (coalesced)", std::to_string(health.u64("flushes"))},
               {"frames received", std::to_string(health.u64("frames_received"))},
               {"egress queue high-water", std::to_string(health.u64("egress_hwm"))},
               {"mailbox high-water", std::to_string(health.u64("mailbox_hwm"))}});
      const auto flush = health["flush_ns_buckets"].u64s();
      const auto sizes = health["frame_bytes_buckets"].u64s();
      std::vector<std::vector<std::string>> hist_rows;
      const auto hist_row = [&](const char* name,
                                const std::vector<std::uint64_t>& buckets,
                                const char* unit) {
        std::uint64_t count = 0;
        for (const auto b : buckets) count += b;
        if (count == 0) return;
        const auto at = [&](double p) {
          return fmt_double(log2_bucket_percentile(
                     buckets, p, net::TransportHealth::kBucketShift)) +
                 " " + unit;
        };
        hist_rows.push_back({name, std::to_string(count), at(50.0), at(95.0), at(100.0)});
      };
      hist_row("frame write latency", flush, "ns");
      hist_row("frame body size", sizes, "B");
      if (!hist_rows.empty()) {
        r.para("Log2-bucket approximations (geometric bucket midpoints):");
        r.table({"histogram", "samples", "~p50", "~p95", "~max"}, hist_rows);
      }
    }
  }

  r.section("Invariant violations");
  const std::uint64_t reported =
      monitor["violations"].as_u64().value_or(s.total_violations);
  if (reported == 0 && s.total_violations == 0) {
    r.para(monitor.members().empty()
               ? "No violation events in the trace (monitors may "
                 "not have been enabled for this run)."
               : "No violations — all monitored invariants held "
                 "(mode: " + monitor.str("mode") + ").");
  } else {
    r.para(std::to_string(std::max<std::uint64_t>(reported, s.total_violations)) +
           " violation(s)" +
           (monitor.str("aborted") == "true" ? "; strict mode aborted the run."
                                              : "."));
    std::vector<std::vector<std::string>> rows;
    for (const auto& v : s.violations) {
      rows.push_back({std::to_string(v.t), std::to_string(v.party), v.monitor,
                      std::to_string(v.iteration), std::to_string(v.cause),
                      v.detail});
    }
    r.table({"t", "party", "monitor", "it", "cause", "detail"}, rows);
    if (s.total_violations > s.violations.size()) {
      r.para("(showing the first " + std::to_string(s.violations.size()) + " of " +
             std::to_string(s.total_violations) + ")");
    }
  }

  // Domain dispatch: a non-Euclidean trace names its value domain in the
  // meta header (and the metrics spec). Euclidean traces carry neither key,
  // so every rendering below falls through to the historical output.
  const std::string domain_name =
      !s.domain.empty() ? s.domain : spec.str("domain");
  const hydra::domain::ValueDomain* dom =
      !domain_name.empty() && domain_name != "euclid"
          ? hydra::domain::find(domain_name)
          : nullptr;

  r.section("Convergence (honest diameter per iteration)");
  if (s.diameter_series.empty()) {
    r.para("No honest_diameter series in the trace.");
  } else if (dom != nullptr) {
    r.chart("Honest value diameter (graph distance, edge count) over virtual "
            "time — the path-midpoint rule contracts the geodesic hull by " +
                fmt_double(dom->contraction_factor()) +
                " per iteration (Fuchs et al., arXiv:2502.05591):",
            s.diameter_series);
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < s.diameter_series.size(); ++i) {
      const double d = s.diameter_series[i].second;
      const double prev = i > 0 ? s.diameter_series[i - 1].second : 0.0;
      rows.push_back({std::to_string(i), fmt_double(d),
                      i > 0 && prev > 0.0 ? fmt_double(d / prev) : "-"});
    }
    r.table({"iteration", "diameter", "ratio"}, rows);
    if (!s.last_values.empty()) {
      // Values are vertex labels, not coordinate tuples — render them with
      // the domain's formatter so a tree report reads "vertex 12", not
      // "(12)".
      r.para("Final honest values (domain \"" + domain_name +
             "\", vertex labels):");
      std::vector<std::vector<std::string>> value_rows;
      for (const auto& [party, entry] : s.last_values) {
        value_rows.push_back(
            {std::to_string(party), std::to_string(entry.first),
             dom->format_value(geo::Vec(std::vector<double>(entry.second)))});
      }
      r.table({"party", "last iteration", "value"}, value_rows);
    }
  } else {
    r.chart("Honest value diameter over virtual time — the paper predicts "
            "contraction by sqrt(7/8) per iteration (Lemma 5.10):",
            s.diameter_series);
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < s.diameter_series.size(); ++i) {
      const double d = s.diameter_series[i].second;
      const double prev = i > 0 ? s.diameter_series[i - 1].second : 0.0;
      rows.push_back({std::to_string(i), fmt_double(d),
                      i > 0 && prev > 0.0 ? fmt_double(d / prev) : "-"});
    }
    r.table({"iteration", "diameter", "ratio"}, rows);
  }

  if (s.max_party >= 0) {
    r.section("Per-party send/deliver matrix");
    std::vector<std::string> headers{"from \\ to"};
    for (std::int64_t to = 0; to <= s.max_party; ++to) {
      headers.push_back(std::to_string(to));
    }
    headers.insert(headers.end(), {"sent", "delivered"});
    std::vector<std::vector<std::string>> rows;
    for (std::int64_t from = 0; from <= s.max_party; ++from) {
      std::vector<std::string> row{std::to_string(from)};
      for (std::int64_t to = 0; to <= s.max_party; ++to) {
        const auto it = s.send_matrix.find({from, to});
        row.push_back(std::to_string(it == s.send_matrix.end() ? 0 : it->second));
      }
      const auto sent = s.sent_msgs_by_party.find(from);
      const auto delivered = s.delivered_by_party.find(from);
      row.push_back(
          std::to_string(sent == s.sent_msgs_by_party.end() ? 0 : sent->second));
      row.push_back(std::to_string(
          delivered == s.delivered_by_party.end() ? 0 : delivered->second));
      rows.push_back(std::move(row));
    }
    r.table(headers, rows);
  }

  // Paper-bound vs measured complexity: needs (n, dim, protocol) from the
  // metrics spec; skipped when no metrics document was provided.
  const auto n = static_cast<std::size_t>(spec.u64("n"));
  const auto dim = static_cast<std::size_t>(spec.u64("dim"));
  if (n > 0 && dim > 0) {
    r.section("Complexity: paper bound vs measured");
    const std::string& protocol = spec.str("protocol");
    const auto k = static_cast<std::uint64_t>(s.max_iteration);
    const auto [msg_bound, byte_bound] = complexity_budget(protocol, n, dim).bound(k);
    r.para("Structural per-party bound for " + protocol + " at n=" +
           std::to_string(n) + ", D=" + std::to_string(dim) + ", K=" +
           std::to_string(k) + ": " + std::to_string(msg_bound) + " messages / " +
           std::to_string(byte_bound) + " bytes (Theorem 5.19; " +
           "Byzantine parties may exceed it).");
    std::vector<std::vector<std::string>> rows;
    for (std::int64_t id = 0; id <= s.max_party; ++id) {
      const auto msgs_it = s.sent_msgs_by_party.find(id);
      const auto bytes_it = s.sent_bytes_by_party.find(id);
      const std::uint64_t msgs =
          msgs_it == s.sent_msgs_by_party.end() ? 0 : msgs_it->second;
      const std::uint64_t bytes =
          bytes_it == s.sent_bytes_by_party.end() ? 0 : bytes_it->second;
      rows.push_back({std::to_string(id), std::to_string(msgs),
                      std::to_string(msg_bound), std::to_string(bytes),
                      std::to_string(byte_bound),
                      msgs <= msg_bound && bytes <= byte_bound ? "yes" : "NO"});
    }
    r.table({"party", "messages", "msg bound", "bytes", "byte bound", "within"},
            rows);
  }

  r.end();
  return s.events;
}

}  // namespace hydra::obs
