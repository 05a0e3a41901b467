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
#include "obs/flatjson.hpp"
#include "obs/json.hpp"
#include "obs/monitor.hpp"

namespace hydra::obs {
namespace {

struct Event {
  std::string raw;  ///< the original line, emitted verbatim
  std::map<std::string, std::string> kv;
  Time t = 0;
};

struct Stream {
  std::uint32_t proc = 0;
  std::string meta_raw;
  std::map<std::string, std::string> meta;
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

/// Splits the balanced "[[...],[...]]" capture of an obc `pairs` value into
/// its top-level elements (each itself a "[...]" capture).
std::vector<std::string> split_top_level(std::string_view array_text) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < array_text.size(); ++i) {
    const char c = array_text[i];
    if (c == '[') {
      if (++depth == 2) start = i;
    } else if (c == ']') {
      if (--depth == 1) out.emplace_back(array_text.substr(start, i - start + 1));
    }
  }
  return out;
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
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto kv = flatjson::parse_object_arrays(line);
    if (kv.empty()) {
      ++skipped;
      continue;
    }
    const std::string ev = flatjson::str(kv, "ev");
    if (ev == "meta") {
      if (!s.meta.empty()) {
        error = format_err("trace %s has more than one meta event", path);
        return false;
      }
      s.meta_raw = line;
      s.meta = std::move(kv);
      s.proc = static_cast<std::uint32_t>(flatjson::num(s.meta, "proc"));
      continue;
    }
    if (ev == "end") {
      s.has_end = true;
      s.complete = flatjson::num(kv, "complete") != 0;
      s.quiescent = flatjson::num(kv, "quiescent") != 0;
      continue;
    }
    Event e;
    e.t = flatjson::num(kv, "t");
    e.raw = line;
    e.kv = std::move(kv);
    s.events.push_back(std::move(e));
  }
  if (s.meta.empty()) {
    error = format_err(
        "trace %s has no meta event — not a merge-able hydra trace "
        "(re-run with --trace-out on a current build)",
        path);
    return false;
  }
  return true;
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
      if (flatjson::str(streams[i].meta, key) !=
          flatjson::str(streams[0].meta, key)) {
        res.error = format_err(
            "meta mismatch on \"%s\": the traces are from different runs "
            "(value %s differs from the first file's)",
            key, flatjson::str(streams[i].meta, key));
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
      if (flatjson::str(e.kv, "ev") == "send") {
        if (const auto id = flatjson::unum(e.kv, "id"); id != 0) {
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
    if (flatjson::str(e.kv, "ev") != "deliver") return false;
    const auto cause = flatjson::unum(e.kv, "cause");
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

    const std::string ev = flatjson::str(e.kv, "ev");
    if (ev == "send") {
      if (const auto id = flatjson::unum(e.kv, "id"); id != 0) {
        emitted_sends.insert(id);
      }
    } else if (ev == "deliver") {
      const auto cause = flatjson::unum(e.kv, "cause");
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
  const std::string mode_str = flatjson::str(streams[0].meta, "mode");
  const auto mode = parse_monitor_mode(mode_str);
  if (res.complete && mode && *mode != MonitorMode::kOff) {
    const auto& meta = streams[0].meta;
    MonitorHost::Config cfg;
    cfg.mode = MonitorMode::kRecord;  // re-runs judge, never abort
    cfg.n = static_cast<std::size_t>(flatjson::num(meta, "n"));
    cfg.ts = static_cast<std::size_t>(flatjson::num(meta, "ts"));
    cfg.ta = static_cast<std::size_t>(flatjson::num(meta, "ta"));
    cfg.dim = static_cast<std::size_t>(flatjson::num(meta, "dim"));
    cfg.eps = flatjson::real(meta, "eps");
    cfg.contraction_factor = flatjson::real(meta, "contraction");
    cfg.hull_tol = flatjson::real(meta, "hull_tol");
    // Absent "domain" key = pre-domain-layer trace = Euclidean (nullptr).
    if (const auto dom_name = flatjson::str(meta, "domain"); !dom_name.empty()) {
      cfg.domain = hydra::domain::find(dom_name);
    }
    cfg.budget.msgs_fixed = flatjson::unum(meta, "msgs_fixed");
    cfg.budget.msgs_per_iteration = flatjson::unum(meta, "msgs_per_it");
    cfg.budget.bytes_fixed = flatjson::unum(meta, "bytes_fixed");
    cfg.budget.bytes_per_iteration = flatjson::unum(meta, "bytes_per_it");
    const auto honest_raw = flatjson::parse_reals(flatjson::str(meta, "honest"));
    cfg.honest.assign(cfg.n, true);
    for (std::size_t i = 0; i < honest_raw.size() && i < cfg.n; ++i) {
      cfg.honest[i] = honest_raw[i] != 0.0;
    }
    // Honest inputs from the union of the processes' `input` events, in
    // party order — exact %.17g round-trips, so the hull is bit-identical
    // to the live single-process monitor's.
    std::map<PartyId, geo::Vec> inputs;
    for (const Event* e : merged_order) {
      if (flatjson::str(e->kv, "ev") != "input") continue;
      const auto party = static_cast<PartyId>(flatjson::num(e->kv, "party"));
      inputs.emplace(party,
                     geo::Vec(flatjson::parse_reals(flatjson::str(e->kv, "v"))));
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
      const std::string ev = flatjson::str(e->kv, "ev");
      const auto t = e->t;
      const auto party = static_cast<PartyId>(flatjson::num(e->kv, "party"));
      const auto cause = flatjson::unum(e->kv, "cause");
      if (ev == "send") {
        const auto from = static_cast<PartyId>(flatjson::num(e->kv, "from"));
        const auto to = static_cast<PartyId>(flatjson::num(e->kv, "to"));
        if (from != to) {
          host.on_send(t, from,
                       static_cast<std::size_t>(flatjson::num(e->kv, "bytes")));
        }
      } else if (ev == "value") {
        host.begin_dispatch(cause);
        host.on_value(t, party,
                      static_cast<std::uint32_t>(flatjson::num(e->kv, "it")),
                      geo::Vec(flatjson::parse_reals(flatjson::str(e->kv, "v"))));
        host.end_dispatch();
      } else if (ev == "rbc") {
        host.begin_dispatch(cause);
        host.on_rbc_digest(t, party,
                           static_cast<std::uint32_t>(flatjson::num(e->kv, "tag")),
                           static_cast<std::uint32_t>(flatjson::num(e->kv, "a")),
                           static_cast<std::uint32_t>(flatjson::num(e->kv, "b")),
                           flatjson::unum(e->kv, "h"));
        host.end_dispatch();
      } else if (ev == "obc") {
        std::vector<std::pair<PartyId, geo::Vec>> pairs;
        for (const auto& elem :
             split_top_level(flatjson::str(e->kv, "pairs"))) {
          const auto nums = flatjson::parse_reals(elem);
          if (nums.empty()) continue;
          pairs.emplace_back(
              static_cast<PartyId>(nums[0]),
              geo::Vec(std::vector<double>(nums.begin() + 1, nums.end())));
        }
        host.begin_dispatch(cause);
        host.on_obc_output(
            t, party, static_cast<std::uint32_t>(flatjson::num(e->kv, "it")),
            pairs);
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
      if (flatjson::str(e->kv, "ev") == "invariant.violation") {
        res.violations += 1;
        res.violations_by_monitor[flatjson::str(e->kv, "monitor")] += 1;
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
