#include "obs/merge.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/types.hpp"
#include "domain/domain.hpp"
#include "geometry/vec.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/monitor.hpp"

namespace hydra::obs {
namespace {

struct Event {
  std::string raw;  ///< the original line, emitted verbatim
  Time t = 0;
  std::size_t line = 0;  ///< 1-based line number in its file
  JsonValue kv;
};

struct Stream {
  std::uint32_t proc = 0;
  std::string meta_raw;
  JsonValue meta;
  std::size_t meta_line = 0;
  std::vector<Event> events;
  bool has_end = false;
  bool complete = false;
  bool quiescent = false;
  std::size_t head = 0;

  [[nodiscard]] bool exhausted() const noexcept { return head >= events.size(); }
};

std::string format_err(const char* fmt, const std::string& a,
                       const std::string& b = {}) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a.c_str(), b.c_str());
  return buf;
}

/// The merge's tolerant line loader: parse failures (a line torn by a kill,
/// or junk) are skipped and counted, never fatal — a partial trace from a
/// SIGTERM'd process must still merge.
bool load_stream(const std::string& path, Stream& s, std::size_t& skipped,
                 std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = format_err("cannot open trace file %s", path);
    return false;
  }
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    auto kv = parse_json(line);
    if (!kv || kv->kind() != JsonValue::Kind::kObject) {
      ++skipped;
      continue;
    }
    const std::string ev = kv->str("ev");
    if (ev == "meta") {
      if (!s.meta_raw.empty()) {
        error = format_err("trace %s has more than one meta event", path);
        return false;
      }
      s.meta_raw = line;
      s.meta = std::move(*kv);
      s.meta_line = line_no;
      s.proc = static_cast<std::uint32_t>(s.meta.u64("proc"));
      continue;
    }
    if (ev == "end") {
      s.has_end = true;
      s.complete = kv->i64("complete") != 0;
      s.quiescent = kv->i64("quiescent") != 0;
      continue;
    }
    const Time t = kv->i64("t");
    s.events.push_back(Event{line, t, line_no, std::move(*kv)});
  }
  if (s.meta_raw.empty()) {
    error = format_err(
        "trace %s has no meta event — not a merge-able hydra trace "
        "(re-run with --trace-out on a current build)",
        path);
    return false;
  }
  return true;
}

/// What the re-evaluation relies on, checked before it runs: the meta line
/// lists one honest flag per party, every party id is below n, and every
/// coordinate vector has dim entries. Without this, a hand-edited n would
/// size the monitors' per-party tables and a short vector would reach the
/// geometry kernels. Returns the first failure as "path:line: what".
std::string check_stream(const std::string& path, const Stream& s) {
  const std::uint64_t n = s.meta.u64("n");
  const std::uint64_t dim = s.meta.u64("dim");
  const std::string bounds = "n=" + std::to_string(n) + ", dim=" + std::to_string(dim);
  const auto at = [&](std::size_t line, const std::string& what) {
    return path + ":" + std::to_string(line) + ": " + what + " (" + bounds + ")";
  };
  const auto party_ok = [n](const JsonValue& id) { return id.as_u64().value_or(n) < n; };
  const auto sized = [dim](const JsonValue& v, std::size_t lead) {
    return v.kind() == JsonValue::Kind::kArray && v.items().size() == lead + dim;
  };
  if (s.meta["honest"].items().size() != n) {
    return at(s.meta_line, "the meta line's honest array does not list n parties");
  }
  for (const Event& e : s.events) {
    for (const auto& [key, id] : e.kv.members()) {
      if ((key == "from" || key == "to" || key == "party") && !party_ok(id)) {
        return at(e.line, key + " " + id.text() + " is not a party id below n");
      }
    }
    const std::string& ev = e.kv.str("ev");
    if ((ev == "input" || ev == "value") && !sized(e.kv["v"], 0)) {
      return at(e.line, ev + " vector v does not have dim coordinates");
    }
    if (ev != "obc") continue;
    for (const JsonValue& pair : e.kv["pairs"].items()) {
      if (!sized(pair, 1) || !party_ok(pair.items()[0])) {
        return at(e.line, "obc pair is not [party id below n, dim coordinates]");
      }
    }
  }
  return {};
}

/// Fields every process must agree on; a mismatch means the traces are from
/// different runs and stitching them would silently lie.
constexpr const char* kSpecKeys[] = {"run_id", "seed", "n",   "ts",
                                     "ta",     "dim",  "eps", "domain"};

}  // namespace

MergeResult merge_traces(const std::vector<std::string>& paths) {
  MergeResult res;
  if (paths.empty()) {
    res.error = "no trace files to merge";
    return res;
  }
  std::vector<Stream> streams(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!load_stream(paths[i], streams[i], res.skipped_lines, res.error)) {
      return res;
    }
    if (res.error = check_stream(paths[i], streams[i]); !res.ok()) return res;
  }
  res.files = streams.size();

  // Deterministic stream order: by proc tag, never by argument position.
  std::sort(streams.begin(), streams.end(),
            [](const Stream& a, const Stream& b) { return a.proc < b.proc; });
  for (std::size_t i = 1; i < streams.size(); ++i) {
    if (streams[i].proc == streams[i - 1].proc) {
      res.error = format_err(
          "two trace files carry the same proc tag (%s) — same-process "
          "duplicates or traces from a single-process run",
          std::to_string(streams[i].proc));
      return res;
    }
  }
  for (std::size_t i = 1; i < streams.size(); ++i) {
    for (const char* key : kSpecKeys) {
      if (streams[i].meta.str(key) != streams[0].meta.str(key)) {
        res.error = format_err(
            "meta mismatch on \"%s\": the traces are from different runs "
            "(value %s differs from the first file's)",
            key, streams[i].meta.str(key));
        return res;
      }
    }
  }

  res.complete = true;
  // ΠrBC totality is only judgeable when every process's event queue drained
  // (the simulator's quiescence); socket runs stop once every party decided
  // and may legally leave echoes in flight, so the re-run's finalize skips
  // totality for them — matching what their live monitors did.
  bool quiescent = true;
  for (const Stream& s : streams) {
    res.complete = res.complete && s.has_end && s.complete;
    quiescent = quiescent && s.quiescent;
  }

  // All send ids present anywhere in the inputs: a deliver whose cause is
  // outside this set can never be satisfied (its origin process's trace was
  // killed or absent) — emit it immediately and count the orphan. Within the
  // set, hold delivers until the send is out; per-file order plus real
  // send-before-deliver ordering guarantees progress (each file is written
  // in emission order, so the combined constraint graph is acyclic).
  std::set<std::uint64_t> all_send_ids;
  for (const Stream& s : streams) {
    for (const Event& e : s.events) {
      if (e.kv.str("ev") == "send") {
        if (const auto id = e.kv.u64("id"); id != 0) {
          all_send_ids.insert(id);
        }
      }
    }
  }

  const bool drop_local_violations = res.complete;
  std::string out;
  for (const Stream& s : streams) {
    out += s.meta_raw;
    out += '\n';
  }

  std::set<std::uint64_t> emitted_sends;
  std::set<std::uint64_t> orphaned;
  Time max_t = 0;
  std::vector<const Event*> merged_order;
  merged_order.reserve([&] {
    std::size_t n = 0;
    for (const Stream& s : streams) n += s.events.size();
    return n;
  }());

  const auto head_blocked = [&](const Stream& s) {
    const Event& e = s.events[s.head];
    if (e.kv.str("ev") != "deliver") return false;
    const auto cause = e.kv.u64("cause");
    if (cause == 0 || emitted_sends.contains(cause)) return false;
    return all_send_ids.contains(cause);
  };

  while (true) {
    const Stream* best = nullptr;
    const Stream* best_any = nullptr;
    for (const Stream& s : streams) {
      if (s.exhausted()) continue;
      const auto key = [&](const Stream& x) {
        return std::tuple(x.events[x.head].t, x.proc, x.head);
      };
      if (best_any == nullptr || key(s) < key(*best_any)) best_any = &s;
      if (head_blocked(s)) continue;
      if (best == nullptr || key(s) < key(*best)) best = &s;
    }
    if (best == nullptr) {
      if (best_any == nullptr) break;  // all exhausted
      // Safety valve: every head is a blocked deliver. Unreachable for
      // traces this library wrote (see the acyclicity note above), but a
      // hand-edited input must not hang the tool — emit the smallest head
      // as an orphan and move on.
      best = best_any;
    }
    auto& s = const_cast<Stream&>(*best);
    const Event& e = s.events[s.head];
    ++s.head;

    const std::string& ev = e.kv.str("ev");
    if (ev == "send") {
      if (const auto id = e.kv.u64("id"); id != 0) {
        emitted_sends.insert(id);
      }
    } else if (ev == "deliver") {
      const auto cause = e.kv.u64("cause");
      if (cause != 0 && !emitted_sends.contains(cause)) {
        orphaned.insert(cause);
      }
    } else if (ev == "invariant.violation" && drop_local_violations) {
      continue;  // superseded by the global re-evaluation below
    }
    max_t = std::max(max_t, e.t);
    out += e.raw;
    out += '\n';
    merged_order.push_back(&e);
    ++res.events;
  }
  res.orphans = orphaned.size();

  // ---- global monitor re-evaluation over the merged timeline -------------
  const auto mode = parse_monitor_mode(streams[0].meta.str("mode"));
  if (res.complete && mode && *mode != MonitorMode::kOff) {
    const auto& meta = streams[0].meta;
    MonitorHost::Config cfg;
    cfg.mode = MonitorMode::kRecord;  // re-runs judge, never abort
    cfg.n = static_cast<std::size_t>(meta.u64("n"));
    cfg.ts = static_cast<std::size_t>(meta.u64("ts"));
    cfg.ta = static_cast<std::size_t>(meta.u64("ta"));
    cfg.dim = static_cast<std::size_t>(meta.u64("dim"));
    cfg.eps = meta.real("eps");
    cfg.contraction_factor = meta.real("contraction");
    cfg.hull_tol = meta.real("hull_tol");
    // Absent "domain" key = pre-domain-layer trace = Euclidean (nullptr).
    if (const auto& dom_name = meta.str("domain"); !dom_name.empty()) {
      cfg.domain = hydra::domain::find(dom_name);
    }
    cfg.budget.msgs_fixed = meta.u64("msgs_fixed");
    cfg.budget.msgs_per_iteration = meta.u64("msgs_per_it");
    cfg.budget.bytes_fixed = meta.u64("bytes_fixed");
    cfg.budget.bytes_per_iteration = meta.u64("bytes_per_it");
    // check_stream() made the honest array exactly n long.
    for (const double h : meta["honest"].reals()) cfg.honest.push_back(h != 0.0);
    // Honest inputs from the union of the processes' `input` events, in
    // party order — exact %.17g round-trips, so the hull is bit-identical
    // to the live single-process monitor's.
    std::map<PartyId, geo::Vec> inputs;
    for (const Event* e : merged_order) {
      if (e->kv.str("ev") != "input") continue;
      inputs.emplace(static_cast<PartyId>(e->kv.u64("party")),
                     geo::Vec(e->kv["v"].reals()));
    }
    for (const auto& [party, v] : inputs) {
      if (party < cfg.honest.size() && cfg.honest[party]) {
        cfg.honest_inputs.push_back(v);
      }
    }

    MonitorHost host(std::move(cfg));
    // Shield the replay from any ambient observability: a disabled context
    // without a sink keeps the hooks from touching a registry or trace.
    Context quiet;
    const ScopedContext scope(&quiet);
    for (const Event* e : merged_order) {
      const JsonValue& kv = e->kv;
      const std::string& ev = kv.str("ev");
      const auto t = e->t;
      const auto party = static_cast<PartyId>(kv.u64("party"));
      const auto cause = kv.u64("cause");
      if (ev == "send") {
        const auto from = static_cast<PartyId>(kv.u64("from"));
        if (from != static_cast<PartyId>(kv.u64("to"))) {
          host.on_send(t, from, static_cast<std::size_t>(kv.u64("bytes")));
        }
      } else if (ev == "value") {
        host.begin_dispatch(cause);
        host.on_value(t, party, static_cast<std::uint32_t>(kv.u64("it")),
                      geo::Vec(kv["v"].reals()));
        host.end_dispatch();
      } else if (ev == "rbc") {
        host.begin_dispatch(cause);
        host.on_rbc_digest(t, party, static_cast<std::uint32_t>(kv.u64("tag")),
                           static_cast<std::uint32_t>(kv.u64("a")),
                           static_cast<std::uint32_t>(kv.u64("b")), kv.u64("h"));
        host.end_dispatch();
      } else if (ev == "obc") {
        // Each pair is [party, coordinates...] (check_stream() sized it).
        std::vector<std::pair<PartyId, geo::Vec>> pairs;
        for (const JsonValue& pair : kv["pairs"].items()) {
          auto coords = pair.reals();
          coords.erase(coords.begin());
          pairs.emplace_back(static_cast<PartyId>(pair.items()[0].as_u64().value_or(0)),
                             geo::Vec(std::move(coords)));
        }
        host.begin_dispatch(cause);
        host.on_obc_output(t, party, static_cast<std::uint32_t>(kv.u64("it")), pairs);
        host.end_dispatch();
      }
    }
    host.finalize(max_t, quiescent);

    res.reevaluated = true;
    res.violations = host.total_violations();
    res.sent_msgs = host.sent_msgs_per_party();
    res.sent_bytes = host.sent_bytes_per_party();
    for (const auto& v : host.violations()) {
      res.violations_by_monitor[v.monitor] += 1;
      JsonWriter w;
      w.begin_object();
      w.kv("ev", "invariant.violation");
      w.kv("t", std::int64_t{v.at});
      w.kv("party", std::uint64_t{v.party});
      w.kv("monitor", v.monitor);
      w.kv("it", v.iteration);
      w.kv("cause", v.cause);
      w.kv("detail", v.detail);
      w.end_object();
      out += w.take();
      out += '\n';
    }
  } else {
    // No re-run: the verdict is whatever local violation lines survived.
    for (const Event* e : merged_order) {
      if (e->kv.str("ev") == "invariant.violation") {
        res.violations += 1;
        res.violations_by_monitor[e->kv.str("monitor")] += 1;
      }
    }
  }

  {
    JsonWriter w;
    w.begin_object();
    w.kv("ev", "end");
    w.kv("complete", res.complete ? 1 : 0);
    w.kv("files", std::uint64_t{res.files});
    w.kv("events", std::uint64_t{res.events});
    w.kv("orphans", std::uint64_t{res.orphans});
    w.kv("violations", res.violations);
    w.end_object();
    out += w.take();
    out += '\n';
  }
  res.merged = std::move(out);
  return res;
}

}  // namespace hydra::obs
