// Observability layer: registry semantics, histogram bucket edges, the JSON
// writer and the strict reader, the disabled path staying a no-op, trace
// determinism (same seed -> byte identical), and the Chrome trace converter.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness/runner.hpp"
#include "net/egress.hpp"
#include "obs/convert.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace hydra;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------------ registry

TEST(Registry, CounterFindOrCreate) {
  obs::Registry reg;
  auto& a = reg.counter("x");
  a.inc();
  a.inc(4);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  EXPECT_EQ(reg.counter("y").value(), 0u);
}

TEST(Registry, Gauge) {
  obs::Registry reg;
  auto& g = reg.gauge("depth");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(g.value(), 5);
  g.set(-10);
  EXPECT_EQ(g.value(), -10);
}

TEST(Registry, ResetDropsEverything) {
  obs::Registry reg;
  reg.counter("c").inc();
  reg.gauge("g").set(1);
  reg.reset();
  EXPECT_EQ(reg.to_json(), R"({"counters":{},"gauges":{},"histograms":{}})");
}

TEST(Registry, ToJsonIsSortedByName) {
  obs::Registry reg;
  reg.counter("zeta").inc(2);
  reg.counter("alpha").inc(1);
  EXPECT_EQ(reg.to_json(),
            R"({"counters":{"alpha":1,"zeta":2},"gauges":{},"histograms":{}})");
}

// ----------------------------------------------------------------- histogram

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Registry reg;
  const double bounds[] = {1.0, 2.0, 4.0};
  auto& h = reg.histogram("h", bounds);
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0: x <= bounds[0]
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(5.0);  // overflow
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 14.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 5.0);
}

TEST(Histogram, BoundsFixedOnFirstRegistration) {
  obs::Registry reg;
  const double first[] = {1.0};
  const double second[] = {10.0, 20.0};
  auto& h = reg.histogram("h", first);
  // Later registrations with different bounds return the existing instrument.
  EXPECT_EQ(&reg.histogram("h", second), &h);
  EXPECT_EQ(h.snapshot().bounds.size(), 1u);
}

// ---------------------------------------------------------------- json writer

TEST(JsonWriter, EscapesAndNesting) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", std::string_view("a\"b\\c\n"));
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(true);
  w.value(2.5);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.take(), R"({"s":"a\"b\\c\n","list":[1,true,2.5]})");
}

TEST(JsonWriter, NanBecomesNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(w.take(), "[null,null,null]");
}

// ---------------------------------------------------------------- json reader

using Kind = obs::JsonValue::Kind;

// Everything the writer emits reads back exactly: each escape it writes
// (control characters as \u00XX), null, booleans, u64s at the top of the
// range (a composed send id), %.17g doubles bit for bit, and member order.
TEST(JsonReader, ReadsBackWhatTheWriterEmits) {
  const std::string text = std::string("q\"b\\s\n\r\t") + '\x01' + '\x1f' + "\xc3\xa9";
  const std::vector<std::uint64_t> ids = {0, 1, std::numeric_limits<std::uint64_t>::max(),
                                          net::compose_send_id(0xfffffffe, 0xffffffff)};
  const std::vector<double> reals = {0.1, -2.5e-300, 1.7976931348623157e308,
                                     4.9406564584124654e-324, 15.734699919816444,
                                     -0.0, 1e21, 0.93541434669348533};
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", std::string_view(text));
  w.kv("yes", true);
  w.kv("no", false);
  w.kv("nan", std::numeric_limits<double>::quiet_NaN());
  w.key("ids");
  w.begin_array();
  for (const auto id : ids) w.value(id);
  w.end_array();
  w.key("reals");
  w.begin_array();
  for (const auto r : reals) w.value(r);
  w.end_array();
  w.kv("neg", std::int64_t{-7});
  w.end_object();

  const auto doc = obs::parse_json(w.str());
  ASSERT_TRUE(doc) << w.str();
  EXPECT_EQ(doc->str("s"), text);
  EXPECT_EQ((*doc)["yes"].kind(), Kind::kBool);
  EXPECT_EQ(doc->str("yes"), "true");
  EXPECT_EQ(doc->str("no"), "false");
  EXPECT_EQ((*doc)["nan"].kind(), Kind::kNull);
  EXPECT_EQ((*doc)["ids"].u64s(), ids);
  const auto back = (*doc)["reals"].reals();
  ASSERT_EQ(back.size(), reals.size());
  for (std::size_t i = 0; i < reals.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]), std::bit_cast<std::uint64_t>(reals[i]))
        << reals[i];
  }
  EXPECT_EQ(doc->i64("neg"), -7);
  std::vector<std::string> order;
  for (const auto& [key, value] : doc->members()) order.push_back(key);
  EXPECT_EQ(order, (std::vector<std::string>{"s", "yes", "no", "nan", "ids", "reals", "neg"}));
}

// Beyond what the writer emits: the rest of the RFC 8259 grammar, and
// conversions that succeed only on a number whose whole text fits the type.
TEST(JsonReader, AcceptsTheGrammarAndConvertsExactly) {
  const struct {
    const char* doc;
    const char* text;  ///< the text of the array's one element
  } cases[] = {
      {R"(["\u00e9\u0041"])", "\xc3\xa9" "A"},
      {R"(["\ud83d\ude00"])", "\xf0\x9f\x98\x80"},
      {R"(["\/\b\f"])", "/\b\f"},
      {" \t[ -0.5E+3 ]\r\n", "-0.5E+3"},
      {"[0]", "0"},
      {"[null]", "null"},
      {"[{}]", ""},
  };
  for (const auto& c : cases) {
    const auto doc = obs::parse_json(c.doc);
    ASSERT_TRUE(doc) << c.doc;
    ASSERT_EQ(doc->items().size(), 1u) << c.doc;
    EXPECT_EQ(doc->items()[0].text(), c.text) << c.doc;
  }

  const auto v = obs::parse_json(R"({"big":18446744073709551615,"neg":-1,"frac":1.5,"s":"7"})");
  ASSERT_TRUE(v);
  EXPECT_EQ((*v)["big"].as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE((*v)["big"].as_i64());
  EXPECT_FALSE((*v)["neg"].as_u64());
  EXPECT_EQ((*v)["neg"].as_i64(), -1);
  EXPECT_FALSE((*v)["frac"].as_i64());
  EXPECT_EQ((*v)["frac"].as_double(), 1.5);
  EXPECT_FALSE((*v)["s"].as_u64());
  EXPECT_EQ(v->u64("absent"), 0u);
  EXPECT_EQ(v->str("absent"), "");
  EXPECT_EQ((*v)["absent"].kind(), Kind::kNull);
}

// Anything but exactly one well-formed value is rejected whole, and the
// nesting limit holds without recursing once per bracket.
TEST(JsonReader, RejectsAnythingButOneDocument) {
  const std::string cases[] = {
      R"({"ev":"send","t":5)",  // a torn line the old flat parsers accepted
      R"({"ev":"send","t":6,"fro)",
      R"({"a":1} x)",
      R"({"a":1}{"a":2})",
      R"(["unterminated)",
      R"(["bad \x escape"])",
      R"(["\u12"])",
      R"(["\ud800"])",
      R"(["\udc00"])",
      "[\"raw\ncontrol\"]",
      "",
      "  ",
      "[1,]",
      R"({"a"})",
      R"({"a":1,})",
      "{a:1}",
      "['x']",
      "[01]",
      "[1.]",
      "[.5]",
      "[+1]",
      "[-]",
      "[1e]",
      "[inf]",
      "[NaN]",
      "[tru]",
      std::string(100000, '['),
      std::string(65, '[') + std::string(65, ']'),
  };
  for (const auto& doc : cases) {
    EXPECT_FALSE(obs::parse_json(doc)) << doc.substr(0, 40);
  }
  EXPECT_TRUE(obs::parse_json(std::string(64, '[') + std::string(64, ']')));
}

// ---------------------------------------------------------------- log parsing

TEST(Log, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
}

// ------------------------------------------------------------- disabled path

harness::RunSpec small_spec(std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.network = harness::Network::kSyncJitter;
  spec.adversary = harness::Adversary::kSilent;
  spec.corruptions = 1;
  spec.seed = seed;
  return spec;
}

TEST(Obs, DisabledRunTouchesNothing) {
  ASSERT_FALSE(obs::enabled());
  const auto result = harness::execute(small_spec(3));
  EXPECT_TRUE(result.verdict.d_aa());
  // No per-round series recorded.
  EXPECT_TRUE(result.messages_per_round.empty());
  EXPECT_FALSE(obs::enabled());
}

// ---------------------------------------------------------------- trace sink

TEST(Obs, TraceIsDeterministicAcrossReruns) {
  const std::string path_a = testing::TempDir() + "hydra_obs_a.jsonl";
  const std::string path_b = testing::TempDir() + "hydra_obs_b.jsonl";

  auto spec = small_spec(7);
  spec.trace_out = path_a;
  const auto first = harness::execute(spec);
  spec.trace_out = path_b;
  const auto second = harness::execute(spec);

  // execute() restores the pre-run obs state.
  EXPECT_FALSE(obs::enabled());
  EXPECT_EQ(obs::trace(), nullptr);

  const std::string a = slurp(path_a);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(path_b));

  // The per-round series accounts for every message exactly once.
  std::uint64_t messages = 0;
  for (const auto m : first.messages_per_round) messages += m;
  EXPECT_EQ(messages, first.messages);
  std::uint64_t bytes = 0;
  for (const auto b : first.bytes_per_round) bytes += b;
  EXPECT_EQ(bytes, first.bytes);
  EXPECT_EQ(first.messages, second.messages);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// Satellite: every traced send carries a unique event id, and every traced
// deliver names the id of the send that caused it. The schema change must
// not disturb same-seed byte-determinism (covered above: the determinism
// test reruns with ids present).
TEST(Obs, SendIdsAreUniqueAndDeliverCausesResolve) {
  const std::string path = testing::TempDir() + "hydra_obs_causal.jsonl";
  auto spec = small_spec(11);
  spec.trace_out = path;
  const auto result = harness::execute(spec);
  EXPECT_TRUE(result.verdict.d_aa());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::set<std::uint64_t> send_ids;
  std::size_t sends = 0;
  std::size_t wire_sends = 0;
  std::size_t delivers = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto e = obs::parse_json(line);
    ASSERT_TRUE(e) << line;
    const std::string& ev = e->str("ev");
    if (ev == "send") {
      ++sends;
      if (e->u64("from") != e->u64("to")) ++wire_sends;
      const auto id = (*e)["id"].as_u64();
      ASSERT_TRUE(id) << line;
      EXPECT_GT(*id, 0u) << line;
      EXPECT_TRUE(send_ids.insert(*id).second) << "duplicate send id: " << line;
    } else if (ev == "deliver") {
      ++delivers;
      const auto cause = (*e)["cause"].as_u64();
      ASSERT_TRUE(cause) << line;
      EXPECT_TRUE(send_ids.contains(*cause))
          << "deliver cause does not match any prior send: " << line;
    }
  }
  EXPECT_GT(sends, 0u);
  EXPECT_EQ(sends, delivers);  // FixedDelay-free sync net still delivers all
  // The trace records every send (self-deliveries included); the stats
  // counter is wire traffic only.
  EXPECT_EQ(wire_sends, result.messages);

  std::remove(path.c_str());
}

TEST(Obs, MetricsJsonIsWritten) {
  const std::string path = testing::TempDir() + "hydra_obs_metrics.json";
  auto spec = small_spec(5);
  spec.metrics_out = path;
  const auto result = harness::execute(spec);
  EXPECT_TRUE(result.verdict.d_aa());

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"per_round\""), std::string::npos);
  EXPECT_NE(json.find("\"diameter_per_round\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.messages\""), std::string::npos);
  EXPECT_NE(json.find("\"aa.safe_area_calls\""), std::string::npos);
  // Wall-clock timings moved to the hydra-perf-v1 side channel (--perf-json)
  // so the metrics document is byte-deterministic per (spec, seed).
  EXPECT_EQ(json.find("\"aa.safe_area_us\""), std::string::npos);
  std::remove(path.c_str());
}

// Every line a traced run writes reads back: the trace (meta, inputs and the
// monitors' value/rbc/obc lines included), the metrics document and the
// phase profile. Inputs scaled to 1e300 make the input diameter infinite,
// which the metrics document writes as null.
TEST(JsonReader, ReadsEveryDocumentATracedRunWrites) {
  auto spec = small_spec(9);
  spec.monitors = obs::MonitorMode::kRecord;
  spec.trace_out = testing::TempDir() + "hydra_reader_trace.jsonl";
  spec.metrics_out = testing::TempDir() + "hydra_reader_metrics.json";
  spec.perf_out = testing::TempDir() + "hydra_reader_perf.json";
  (void)harness::execute(spec);

  std::ifstream trace(spec.trace_out);
  std::set<std::string> kinds;
  for (std::string line; std::getline(trace, line);) {
    const auto e = obs::parse_json(line);
    ASSERT_TRUE(e) << line;
    kinds.insert(e->str("ev"));
  }
  for (const char* ev : {"meta", "input", "send", "deliver", "value", "rbc", "obc", "end"}) {
    EXPECT_TRUE(kinds.contains(ev)) << ev;
  }
  EXPECT_TRUE(obs::parse_json(slurp(spec.metrics_out)));
  const auto perf = obs::parse_json(slurp(spec.perf_out));
  ASSERT_TRUE(perf);
  EXPECT_EQ(perf->str("schema"), "hydra-perf-v1");

  auto huge = small_spec(9);
  huge.workload_scale = 1e300;
  huge.metrics_out = spec.metrics_out;
  (void)harness::execute(huge);
  const auto metrics = obs::parse_json(slurp(huge.metrics_out));
  ASSERT_TRUE(metrics);
  EXPECT_EQ((*metrics)["totals"]["input_diameter"].kind(), Kind::kNull);

  for (const auto& path : {spec.trace_out, spec.metrics_out, spec.perf_out}) {
    std::remove(path.c_str());
  }
}

// ----------------------------------------------------------------- converter

TEST(Convert, MapsEveryEventKind) {
  std::istringstream in(
      R"({"ev":"send","t":5,"from":1,"to":2,"tag":3,"a":0,"b":0,"kind":1,"bytes":9})"
      "\n"
      R"({"ev":"deliver","t":8,"from":1,"to":2,"tag":3,"a":0,"b":0,"kind":1,"bytes":9})"
      "\n"
      R"({"ev":"state","t":8,"party":2,"layer":"rbc","what":"echo","a":0,"b":0})"
      "\n"
      R"({"ev":"round_start","t":10,"party":0,"it":1})"
      "\n"
      R"({"ev":"round_end","t":20,"party":0,"it":1})"
      "\n"
      R"({"ev":"scalar","t":20,"party":0,"name":"diam","value":1.5})"
      "\n"
      R"({"ev":"log","level":2,"msg":"hello"})"
      "\n"
      "this line is not JSON\n");
  std::ostringstream out;
  EXPECT_EQ(obs::chrome_trace_from_jsonl(in, out), 7u);
  const std::string chrome = out.str();
  EXPECT_NE(chrome.find(R"("ph":"B")"), std::string::npos);
  EXPECT_NE(chrome.find(R"("ph":"E")"), std::string::npos);
  EXPECT_NE(chrome.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(chrome.find(R"("name":"rbc:echo")"), std::string::npos);
  EXPECT_NE(chrome.find("thread_name"), std::string::npos);
  // Balanced document: the array and object close.
  EXPECT_EQ(chrome.back(), '}');
}

TEST(Convert, EmptyInputYieldsValidDocument) {
  std::istringstream in("");
  std::ostringstream out;
  EXPECT_EQ(obs::chrome_trace_from_jsonl(in, out), 0u);
  EXPECT_NE(out.str().find("traceEvents"), std::string::npos);
}

}  // namespace
