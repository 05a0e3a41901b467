// Cross-process trace stitching (obs/merge.hpp) and the hydra-stats-v1 live
// telemetry schema (obs/stats.hpp):
//
//   * a real sim-backend trace merges cleanly and the post-hoc global monitor
//     re-evaluation reproduces the live run's verdict and per-party tallies;
//   * the merged output is a pure function of the input CONTENTS — shuffling
//     the path list yields byte-identical bytes;
//   * causality holds: a deliver is never emitted before its cause send,
//     even when per-process clocks disagree; delivers whose cause send is in
//     no input file are counted as orphans;
//   * hostile inputs fail actionably (meta mismatch, duplicate proc tags,
//     missing meta, an n or a vector the re-evaluation cannot trust) and
//     torn lines from a killed process are skipped, not fatal;
//   * StatsPublisher heartbeats round-trip through the JSON reader the
//     `hydra top` command uses, and the final line is flagged.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "obs/json.hpp"
#include "obs/merge.hpp"
#include "obs/monitor.hpp"
#include "obs/stats.hpp"

using namespace hydra;

namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Minimal but spec-complete meta line (every field merge_traces() reads).
/// `mode:"off"` keeps the re-evaluation out of synthetic-trace tests so they
/// exercise pure merge mechanics.
std::string meta_line(std::uint32_t proc, std::uint64_t seed = 9,
                      const std::string& mode = "off") {
  std::ostringstream os;
  os << R"({"ev":"meta","schema":"hydra-trace-v1","proc":)" << proc
     << R"(,"run_id":42,"seed":)" << seed
     << R"(,"n":2,"ts":0,"ta":0,"dim":1,"eps":0.01,"mode":")" << mode
     << R"(","honest":[1,1],"local":[)" << (proc - 1) << R"(]})"
     << "\n";
  return os.str();
}

constexpr const char* kEndComplete = R"({"ev":"end","complete":1,"quiescent":0})"
                                     "\n";

// ------------------------------------------------------- real sim-run merge

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
  spec.monitors = obs::MonitorMode::kRecord;
  return spec;
}

TEST(Merge, SimTraceReevaluatesToLiveVerdict) {
  const std::string path = temp_path("merge_sim.jsonl");
  auto spec = small_spec(7);
  spec.trace_out = path;
  const auto live = harness::execute(spec);
  EXPECT_TRUE(live.verdict.d_aa());
  EXPECT_EQ(live.monitor_violations, 0u);

  const auto merged = obs::merge_traces({path});
  ASSERT_TRUE(merged.ok()) << merged.error;
  EXPECT_EQ(merged.files, 1u);
  EXPECT_TRUE(merged.complete);
  EXPECT_TRUE(merged.reevaluated);
  EXPECT_EQ(merged.orphans, 0u);
  EXPECT_EQ(merged.skipped_lines, 0u);
  // The global re-run over the merged timeline reaches the live verdict.
  EXPECT_EQ(merged.violations, live.monitor_violations);
  // Thm 5.19 tallies: the re-run counts exactly the wire traffic the live
  // stats counted (self-deliveries are excluded on both sides).
  std::uint64_t sent = 0;
  for (const auto m : merged.sent_msgs) sent += m;
  EXPECT_EQ(sent, live.messages);
  std::uint64_t bytes = 0;
  for (const auto b : merged.sent_bytes) bytes += b;
  EXPECT_EQ(bytes, live.bytes);

  // Merging a merge-output is not meaningful (one file, same proc), but the
  // merged text itself must end with the synthesized summary line.
  const auto tail = merged.merged.rfind(R"({"ev":"end","complete":1)");
  EXPECT_NE(tail, std::string::npos);

  std::remove(path.c_str());
}

TEST(Merge, MergeOfSameTraceIsIdempotentlyDeterministic) {
  const std::string path = temp_path("merge_det.jsonl");
  auto spec = small_spec(13);
  spec.trace_out = path;
  (void)harness::execute(spec);

  const auto once = obs::merge_traces({path});
  const auto twice = obs::merge_traces({path});
  ASSERT_TRUE(once.ok()) << once.error;
  EXPECT_EQ(once.merged, twice.merged);
  std::remove(path.c_str());
}

// -------------------------------------------------- synthetic merge mechanics

TEST(Merge, ByteIdenticalUnderPathShuffle) {
  const std::string a = temp_path("merge_sh_a.jsonl");
  const std::string b = temp_path("merge_sh_b.jsonl");
  write_file(a, meta_line(1) +
                    R"({"ev":"send","t":10,"from":0,"to":1,"tag":1,"a":0,"b":0,"kind":0,"bytes":8,"id":101,"proc":1})"
                    "\n" +
                    kEndComplete);
  write_file(b, meta_line(2) +
                    R"({"ev":"deliver","t":12,"from":0,"to":1,"tag":1,"a":0,"b":0,"kind":0,"bytes":8,"cause":101,"proc":2})"
                    "\n" +
                    kEndComplete);

  const auto ab = obs::merge_traces({a, b});
  const auto ba = obs::merge_traces({b, a});
  ASSERT_TRUE(ab.ok()) << ab.error;
  ASSERT_TRUE(ba.ok()) << ba.error;
  EXPECT_EQ(ab.merged, ba.merged);
  EXPECT_EQ(ab.events, 2u);
  EXPECT_EQ(ab.orphans, 0u);
  EXPECT_TRUE(ab.complete);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, DeliverHeldBackUntilCauseSendEmitted) {
  // Proc 2's clock runs early: its deliver is stamped t=3, BEFORE the t=10
  // send that caused it. The merge must still order cause before effect.
  const std::string a = temp_path("merge_causal_a.jsonl");
  const std::string b = temp_path("merge_causal_b.jsonl");
  write_file(a, meta_line(1) +
                    R"({"ev":"send","t":10,"from":0,"to":1,"tag":1,"a":0,"b":0,"kind":0,"bytes":8,"id":777,"proc":1})"
                    "\n" +
                    kEndComplete);
  write_file(b, meta_line(2) +
                    R"({"ev":"deliver","t":3,"from":0,"to":1,"tag":1,"a":0,"b":0,"kind":0,"bytes":8,"cause":777,"proc":2})"
                    "\n" +
                    kEndComplete);

  const auto res = obs::merge_traces({a, b});
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.orphans, 0u);
  const auto send_pos = res.merged.find(R"("id":777)");
  const auto deliver_pos = res.merged.find(R"("cause":777)");
  ASSERT_NE(send_pos, std::string::npos);
  ASSERT_NE(deliver_pos, std::string::npos);
  EXPECT_LT(send_pos, deliver_pos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, DeliverWithAbsentCauseIsAnOrphan) {
  // The cause send lives in a process whose trace is missing (killed before
  // flush, file lost): the deliver is emitted in timestamp order and counted.
  const std::string a = temp_path("merge_orphan.jsonl");
  write_file(a, meta_line(1) +
                    R"({"ev":"deliver","t":5,"from":1,"to":0,"tag":1,"a":0,"b":0,"kind":0,"bytes":8,"cause":999,"proc":1})"
                    "\n" +
                    kEndComplete);
  const auto res = obs::merge_traces({a});
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.orphans, 1u);
  EXPECT_EQ(res.events, 1u);
  std::remove(a.c_str());
}

TEST(Merge, MetaSpecMismatchFailsActionably) {
  const std::string a = temp_path("merge_mm_a.jsonl");
  const std::string b = temp_path("merge_mm_b.jsonl");
  write_file(a, meta_line(1, /*seed=*/9) + kEndComplete);
  write_file(b, meta_line(2, /*seed=*/10) + kEndComplete);
  const auto res = obs::merge_traces({a, b});
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.error.find("meta mismatch"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("seed"), std::string::npos) << res.error;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, DuplicateProcTagFails) {
  const std::string a = temp_path("merge_dup_a.jsonl");
  const std::string b = temp_path("merge_dup_b.jsonl");
  write_file(a, meta_line(1) + kEndComplete);
  write_file(b, meta_line(1) + kEndComplete);
  const auto res = obs::merge_traces({a, b});
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.error.find("same proc tag"), std::string::npos) << res.error;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, FileWithoutMetaFails) {
  const std::string a = temp_path("merge_nometa.jsonl");
  write_file(a, std::string(R"({"ev":"state","t":1,"party":0})") + "\n");
  const auto res = obs::merge_traces({a});
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.error.find("no meta event"), std::string::npos) << res.error;
  std::remove(a.c_str());
}

TEST(Merge, TornTailIsSkippedNotFatal) {
  // A SIGKILL mid-write leaves a torn final line; the merge keeps the valid
  // prefix, counts the junk, and reports the stream incomplete (no `end`).
  // The second tail breaks only between two members, so a reader that stops
  // at the first missing brace would take it for an event.
  for (const char* tail : {R"({"ev":"send","t":6,"fro)", R"({"ev":"send","t":6)"}) {
    const std::string a = temp_path("merge_torn.jsonl");
    write_file(a, meta_line(1) +
                      R"({"ev":"state","t":4,"party":0,"layer":"init","what":"start","a":0,"b":0,"proc":1})"
                      "\n" +
                      tail);
    const auto res = obs::merge_traces({a});
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.events, 1u) << tail;
    EXPECT_EQ(res.skipped_lines, 1u) << tail;
    EXPECT_FALSE(res.complete);
    EXPECT_FALSE(res.reevaluated);
    std::remove(a.c_str());
  }
}

// The re-evaluation sizes its per-party tables by the meta line's n and
// hands every vector to the geometry kernels, so a trace that breaks either
// is a merge error naming the file and line. Each case edits the first line
// of a real 4-party 2D trace that contains `marker`.
TEST(Merge, TracesTheReevaluationCannotTrustAreRejected) {
  const struct {
    const char* marker;
    std::string (*edit)(std::string);
    const char* error;
  } cases[] = {
      {R"("ev":"meta")",
       [](std::string line) {
         return line.replace(line.find(R"("n":4,)"), 6, R"("n":4000000000000000,)");
       },
       ": the meta line's honest array does not list n parties "
       "(n=4000000000000000, dim=2)"},
      {R"("ev":"value")",
       [](std::string line) {  // keep only the first coordinate
         const auto comma = line.find(',', line.find(R"("v":[)"));
         return line.replace(comma, line.find(']', comma) - comma, "");
       },
       ": value vector v does not have dim coordinates (n=4, dim=2)"},
      {R"("ev":"send")",
       [](std::string line) {
         const auto to = line.find(R"("to":)");
         return line.replace(to, line.find(',', to) - to, R"("to":20000)");
       },
       ": to 20000 is not a party id below n (n=4, dim=2)"},
  };
  harness::RunSpec spec;
  spec.params.n = 4;
  spec.params.ts = 1;
  spec.params.ta = 0;
  spec.params.dim = 2;
  spec.network = harness::Network::kSyncWorstCase;
  spec.adversary = harness::Adversary::kNone;
  spec.corruptions = 0;
  spec.monitors = obs::MonitorMode::kRecord;
  spec.seed = 1;
  spec.trace_out = temp_path("merge_untrusted.jsonl");
  (void)harness::execute(spec);
  const std::string trace = slurp(spec.trace_out);

  for (const auto& c : cases) {
    std::istringstream in(trace);
    std::string edited;
    std::size_t edited_line = 0;
    std::size_t line_no = 1;
    for (std::string line; std::getline(in, line); ++line_no) {
      if (edited_line == 0 && line.find(c.marker) != std::string::npos) {
        line = c.edit(line);
        edited_line = line_no;
      }
      edited += line + "\n";
    }
    write_file(spec.trace_out, edited);
    const auto res = obs::merge_traces({spec.trace_out});
    EXPECT_FALSE(res.ok()) << c.marker;
    EXPECT_EQ(res.error, spec.trace_out + ":" + std::to_string(edited_line) + c.error);
  }
  std::remove(spec.trace_out.c_str());
}

TEST(Merge, IncompleteRunKeepsLocalViolations) {
  // Without every process's end{complete:1}, the global re-run would judge a
  // partial world — the merge must instead surface the surviving local
  // violation lines verbatim.
  const std::string a = temp_path("merge_incpl_a.jsonl");
  const std::string b = temp_path("merge_incpl_b.jsonl");
  write_file(a, meta_line(1, 9, "record") +
                    R"({"ev":"invariant.violation","t":7,"party":0,"monitor":"validity","it":1,"cause":0,"detail":"x","proc":1})"
                    "\n" +
                    kEndComplete);
  write_file(b, meta_line(2, 9, "record"));  // killed: no end marker
  const auto res = obs::merge_traces({a, b});
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_FALSE(res.complete);
  EXPECT_FALSE(res.reevaluated);
  EXPECT_EQ(res.violations, 1u);
  ASSERT_TRUE(res.violations_by_monitor.contains("validity"));
  EXPECT_EQ(res.violations_by_monitor.at("validity"), 1u);
  EXPECT_NE(res.merged.find(R"("monitor":"validity")"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, CompleteRunDropsLocalViolationsBeforeReeval) {
  // A local violation line judged a per-process island; on a complete merge
  // the global re-run supersedes it. mode:"off" still drops the local lines
  // only when complete — here mode "record" with no protocol events re-runs
  // to zero violations, so the stale local line must be gone.
  const std::string a = temp_path("merge_super.jsonl");
  write_file(a, meta_line(1, 9, "record") +
                    R"({"ev":"invariant.violation","t":7,"party":0,"monitor":"budget.msgs","it":1,"cause":0,"detail":"stale","proc":1})"
                    "\n" +
                    kEndComplete);
  const auto res = obs::merge_traces({a});
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.reevaluated);
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.merged.find("stale"), std::string::npos);
  std::remove(a.c_str());
}

// ------------------------------------------------------- stats schema round-trip

TEST(Stats, HeartbeatsRoundTripThroughTheReader) {
  const std::string path = temp_path("stats_rt.jsonl");
  {
    obs::StatsPublisher pub(path, /*interval_ms=*/5, /*proc=*/3);
    ASSERT_TRUE(pub.ok());
    std::atomic<std::uint64_t> ticks{0};
    pub.set_provider([&](obs::StatsSnapshot& s) {
      const auto n = ticks.fetch_add(1) + 1;
      s.messages = 10 * n;
      s.bytes = 100 * n;
      s.decided = 1;
      s.round = 4;
      obs::StatsSnapshot::Party p;
      p.id = 2;
      p.finished = true;
      p.events = 17;
      p.round = 4;
      s.parties.push_back(p);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    pub.set_provider(nullptr);
    pub.stop();
    pub.stop();  // idempotent
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  bool saw_final = false;
  double last_ms = -1.0;
  while (std::getline(in, line)) {
    const auto kv = obs::parse_json(line);
    ASSERT_TRUE(kv) << line;
    ++lines;
    EXPECT_EQ(kv->str("schema"), "hydra-stats-v1") << line;
    EXPECT_EQ(kv->u64("proc"), 3u) << line;
    const double ms = kv->real("ms");
    EXPECT_GE(ms, last_ms) << "wall clock went backwards: " << line;
    last_ms = ms;
    EXPECT_FALSE(saw_final) << "line after the final heartbeat: " << line;
    saw_final = kv->u64("final") != 0;
    if (kv->u64("messages") == 0) continue;  // pre-provider
    // parties:[[id,finished,events,round],...] — the exact access pattern
    // `hydra top` uses.
    const auto& rows = (*kv)["parties"].items();
    ASSERT_EQ(rows.size(), 1u) << line;
    EXPECT_EQ(rows[0].reals(), (std::vector<double>{2.0, 1.0, 17.0, 4.0})) << line;
    EXPECT_EQ(kv->u64("decided"), 1u) << line;
    EXPECT_EQ(kv->u64("round"), 4u) << line;
  }
  EXPECT_GE(lines, 2u);  // at least one periodic beat plus the final one
  EXPECT_TRUE(saw_final);

  // A zero proc tag suppresses the key entirely (single-process runs).
  const std::string path0 = temp_path("stats_rt0.jsonl");
  {
    obs::StatsPublisher pub(path0, 5, /*proc=*/0);
    ASSERT_TRUE(pub.ok());
    pub.stop();
  }
  const std::string doc = slurp(path0);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.find("\"proc\""), std::string::npos);
  std::remove(path.c_str());
  std::remove(path0.c_str());
}

// The wall-clock party runtime owns the heartbeat provider on every
// wall-clock backend, so a threads run's final heartbeat carries live state:
// one row per party, every party decided, and the wire totals the run sent.
TEST(Stats, ThreadsFinalHeartbeatCoversEveryParty) {
  const std::string path = temp_path("stats_threads.jsonl");
  auto spec = small_spec(5);
  spec.adversary = harness::Adversary::kNone;
  spec.corruptions = 0;
  spec.backend = "threads";
  spec.stats_out = path;
  spec.stats_interval_ms = 5;
  const auto result = harness::execute(spec);
  ASSERT_FALSE(result.timed_out) << result.timeout_detail;

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::string last;
  while (std::getline(in, line)) last = line;
  const auto kv = obs::parse_json(last);
  ASSERT_TRUE(kv) << last;
  EXPECT_EQ(kv->u64("final"), 1u) << last;
  EXPECT_EQ(kv->u64("decided"), spec.params.n) << last;
  EXPECT_GT(kv->u64("messages"), 0u) << last;
  // parties:[[id,finished,events,round],...], one row per party.
  const auto& rows = (*kv)["parties"].items();
  ASSERT_EQ(rows.size(), spec.params.n) << last;
  for (const auto& row : rows) EXPECT_EQ(row.items().size(), 4u) << last;
  std::remove(path.c_str());
}

}  // namespace
