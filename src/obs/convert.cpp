#include "obs/convert.hpp"

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace hydra::obs {
namespace {

/// Emits the shared prefix of one traceEvents entry.
void event_header(JsonWriter& w, std::string_view name, std::string_view ph,
                  std::int64_t ts, std::int64_t tid) {
  w.begin_object();
  w.kv("name", name);
  w.kv("ph", ph);
  w.kv("ts", ts);
  w.kv("pid", 0);
  w.kv("tid", tid);
}

}  // namespace

std::size_t chrome_trace_from_jsonl(std::istream& in, std::ostream& out) {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  std::size_t converted = 0;
  std::set<std::int64_t> tids;
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue kv = parse_json(line).value_or(JsonValue{});
    const std::string& ev = kv.str("ev");
    const std::int64_t t = kv.i64("t");

    if (ev == "send" || ev == "deliver") {
      const std::int64_t tid = ev == "send" ? kv.i64("from") : kv.i64("to");
      tids.insert(tid);
      const std::string name = ev + " tag" + kv.str("tag") + " k" + kv.str("kind");
      event_header(w, name, "i", t, tid);
      w.kv("s", "t");
      w.key("args");
      w.begin_object();
      w.kv("from", kv.i64("from"));
      w.kv("to", kv.i64("to"));
      w.kv("tag", kv.i64("tag"));
      w.kv("a", kv.i64("a"));
      w.kv("b", kv.i64("b"));
      w.kv("kind", kv.i64("kind"));
      w.kv("bytes", kv.i64("bytes"));
      w.end_object();
      w.end_object();
    } else if (ev == "state") {
      const std::int64_t tid = kv.i64("party");
      tids.insert(tid);
      event_header(w, kv.str("layer") + ":" + kv.str("what"), "i", t, tid);
      w.kv("s", "t");
      w.key("args");
      w.begin_object();
      w.kv("a", kv.i64("a"));
      w.kv("b", kv.i64("b"));
      w.end_object();
      w.end_object();
    } else if (ev == "round_start" || ev == "round_end") {
      const std::int64_t tid = kv.i64("party");
      tids.insert(tid);
      event_header(w, "it " + kv.str("it"), ev == "round_start" ? "B" : "E", t, tid);
      w.key("args");
      w.begin_object();
      w.kv("it", kv.i64("it"));
      w.end_object();
      w.end_object();
    } else if (ev == "scalar") {
      const std::int64_t tid = kv.i64("party");
      tids.insert(tid);
      const std::string name = kv.str("name") + " p" + kv.str("party");
      event_header(w, name, "C", t, tid);
      w.key("args");
      w.begin_object();
      w.kv("value", kv.real("value"));
      w.end_object();
      w.end_object();
    } else if (ev == "invariant.violation") {
      const std::int64_t tid = kv.i64("party");
      tids.insert(tid);
      event_header(w, "VIOLATION " + kv.str("monitor"), "i", t, tid);
      w.kv("s", "g");  // global scope: violations should jump out in the UI
      w.key("args");
      w.begin_object();
      w.kv("monitor", kv.str("monitor"));
      w.kv("it", kv.i64("it"));
      w.kv("cause", kv.i64("cause"));
      w.kv("detail", kv.str("detail"));
      w.end_object();
      w.end_object();
    } else if (ev == "log") {
      event_header(w, "log", "i", t, -1);
      w.kv("s", "g");
      w.key("args");
      w.begin_object();
      w.kv("level", kv.i64("level"));
      w.kv("msg", kv.str("msg"));
      w.end_object();
      w.end_object();
    } else {
      continue;  // unknown event type (schema grew): skip, stay compatible
    }
    ++converted;
  }

  // Name the per-party thread tracks.
  for (const auto tid : tids) {
    event_header(w, "thread_name", "M", 0, tid);
    w.key("args");
    w.begin_object();
    w.kv("name", "party " + std::to_string(tid));
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  const std::string doc = w.take();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  return converted;
}

}  // namespace hydra::obs
