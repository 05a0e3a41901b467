// hydra — command-line driver for single runs and seed sweeps.
//
//   hydra run    [options]    execute one run, print the verdict and metrics
//   hydra sweep  [options]    execute --seeds runs (in parallel), print the
//                             pass rate
//   hydra serve  [options]    host a subset of parties over real sockets and
//                             wait for the peers (multi-process deployment;
//                             docs/DEPLOYMENT.md)
//   hydra join   [options]    alias of serve (same handshake; "serve" reads
//                             naturally for the first process, "join" for
//                             the rest)
//   hydra report [options]    render a trace (+ metrics) into a readable
//                             report (markdown or single-file HTML) or
//                             export it as Chrome trace JSON; with --merge,
//                             stitch per-process traces first
//   hydra perf   [options]    measure the geometry kernels (ns/point) or
//                             read a bench JSON or captured agreebench
//                             output, and gate it against a baseline; or
//                             render --perf-json phase profiles (glob/comma
//                             lists merge into one table)
//   hydra top    [options]    render the latest hydra-stats-v1 heartbeats of
//                             a live (or finished) run's --stats-json file
//   hydra list                print the accepted option values
//
// Options (with defaults):
//   --n 5 --ts 1 --ta 1 --dim 2 --eps 1e-2 --delta 1000
//   --protocol hybrid|sync-lockstep|async-mh
//   --network sync-worst|sync-jitter|sync-target|sync-rush|
//             async-reorder|async-partition|async-exp
//   --adversary none|silent|crash|equivocate|outlier|halt-rush|spam|
//               straggler|turncoat|mixed
//   --corrupt 1 --workload ball|simplex|clustered|collinear|gaussian
//   --scale 10 --seed 1 --seeds 20 --aggregation midpoint|centroid
//
// Value domain (src/domain/; docs/ARCHITECTURE.md "The domain layer"):
//   --domain euclid|tree|path
//                         euclid (default) is the paper's R^D. tree/path run
//                         approximate agreement over the vertices of a fixed
//                         graph (values are integer vertex labels, the safe
//                         area is an intersection of geodesic hulls). Graph
//                         domains run the hybrid protocol only, force
//                         --dim 1, and need --eps >= 1 (1-agreement =
//                         adjacent vertices)
//
// Execution backend (src/net/; docs/ARCHITECTURE.md):
//   --backend sim|threads|tcp|uds
//                         sim (default) is the deterministic discrete-event
//                         simulator; threads runs one OS thread per party
//                         under wall-clock time; tcp/uds run the socket
//                         transport, every non-self message crossing the OS
//                         as a length-prefixed frame (full mesh over
//                         loopback/tmpdir when single-process). All through
//                         the same delivery pipeline (verdicts judged
//                         identically)
//
// hydra serve/join options (docs/DEPLOYMENT.md):
//   --party I[,J...]      the parties THIS process hosts (required)
//   --peers A0,...,A(n-1) every party's endpoint, in PartyId order
//                         (required; "host:port" for tcp, socket paths for
//                         uds); n is taken from this list
//   --listen ADDR         overrides this process's own entry in --peers
//                         (single --party only), e.g. to bind 0.0.0.0
//   plus any run option; --backend defaults to tcp here. Every process must
//   be started with the same spec (n, ts, ta, dim, seed, protocol, ...) —
//   inputs are a pure function of it. Exit status judges the LOCAL parties.
//   SIGTERM/SIGINT flush every registered trace/stats sink before exiting
//   (status 130), so a killed process leaves mergeable JSONL behind.
//
// Live telemetry (docs/OBSERVABILITY.md "Live telemetry"):
//   --stats-json PATH     hydra-stats-v1 JSONL heartbeats (wall clock; NOT
//                         byte-deterministic, unlike the trace)
//   --stats-interval MS   heartbeat period (default 1000)
//
// Fault injection (docs/ROBUSTNESS.md):
//   --faults SPEC         semicolon-separated clauses, e.g.
//                         "dup(p=0.2);reorder(p=0.5,skew=2000);
//                          crash(party=0,at=5000[,until=20000]);
//                          partition(group=0.1,from=2000,until=9000)"
//
// Sweep parallelism (docs/OBSERVABILITY.md "Parallel sweeps"):
//   --jobs N              worker threads for sweep mode (0 = one per
//                         hardware thread, the default); every run executes
//                         in an isolated context, so results and per-seed
//                         output files are identical for any --jobs value
//   --sweep-json PATH     merged sweep summary (per-cell aggregates +
//                         failure list)
//
// Observability (docs/OBSERVABILITY.md); both --key value and --key=value
// spellings are accepted:
//   --trace-out PATH      structured JSONL trace of the run
//   --metrics-json PATH   metrics snapshot (per-round counts, registry dump)
//   --log-level LEVEL     off|error|info|debug|trace (default error, so a
//                         failing --trace-out/--metrics-json path is reported)
//   --monitors MODE       off|record|strict — online invariant monitors
//                         (docs/OBSERVABILITY.md "Invariant monitors");
//                         strict aborts the run on the first violation
//   --perf-json PATH      hydra-perf-v1 phase profile of the run (scoped
//                         profiler; docs/OBSERVABILITY.md "Phase profiler").
//                         Wall-clock ns — NOT byte-deterministic, unlike the
//                         trace/metrics files (phase counts are)
// In sweep mode each seed writes PATH with a ".s<seed>" suffix before the
// extension, so no seed overwrites another.
//
// hydra report options:
//   --trace PATH          the JSONL trace to analyse (this or --merge)
//   --merge GLOB          stitch per-process traces (glob and/or comma list,
//                         e.g. 'trace.p*.jsonl') into one causally ordered
//                         timeline, re-evaluate the GLOBAL monitors when
//                         every process completed, and report THAT
//                         (docs/OBSERVABILITY.md "Distributed runs"); exits
//                         1 on merge errors, violations, or orphan delivers
//                         in a complete merge (expected after a killed
//                         process, so not counted then)
//   --merged-out PATH     also write the stitched JSONL (only with --merge)
//   --metrics PATH        the run's --metrics-json document (optional)
//   --out PATH            output file (default: stdout)
//   --format md|html|chrome
//                         report format (default md); chrome writes the
//                         trace as Chrome about://tracing / Perfetto JSON
//                         instead of a report
//
// hydra perf options (docs/OBSERVABILITY.md "Measuring performance"):
//   (no --input)          measure the geometry kernels on fixed inputs and
//                         print ns/point per kernel
//   --json PATH           also write the measurements as hydra-bench-v1 JSON
//   --baseline PATH       compare against a checked-in bench JSON (e.g.
//                         bench/baselines/BENCH_geometry.json); prints the
//                         delta table and exits 1 on a regression: a count
//                         (unit count or B) off its baseline at all, another
//                         metric past --budget, or a baseline metric missing
//   --budget FRAC         relative regression budget (default 0.10)
//   --inflate F           multiply the measured values by F first; CI
//                         requires the baselines inflated against themselves
//                         to exit 1 (the gate can fail)
//   --input PATHS         the documents select the mode. Captured agreebench
//                         outputs (<workload>/<metric>, the median over the
//                         runs, their stamp as the --json context; a run
//                         without a passing result line is an error) or one
//                         hydra-bench-v1 file stand in for the kernel
//                         measurement, so the options above gate them
//                         without re-measuring. hydra-perf-v1 phase
//                         profiles render as a self/total attribution table
//                         instead; a glob and/or comma list
//                         ('perf.p*.json') merges into one table
//                         (counts/totals summed, min of mins, max of maxes,
//                         log2 buckets added)
//   --top K               show only the top K phases by self time
//
// hydra top options:
//   --input PATH          a --stats-json heartbeat file (required); renders
//                         the newest heartbeat per process plus per-party
//                         progress — run it while the processes are still up
//                         (or after; the final:1 line persists)
//
// Exit status: 0 when every executed run satisfied D-AA *and* no invariant
// monitor recorded a violation, 1 otherwise — usable directly in scripts
// and CI (sweeps with a non-empty failure list or any monitor violation
// exit 1).
#include <glob.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "domain/domain.hpp"
#include "faults/faults.hpp"
#include "harness/perf.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "obs/convert.hpp"
#include "obs/json.hpp"
#include "obs/merge.hpp"
#include "obs/monitor.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "transport/socket_net.hpp"

using namespace hydra;
using namespace hydra::harness;

namespace {

struct Options {
  RunSpec spec;
  std::uint64_t seeds = 20;
  std::size_t jobs = 0;  ///< sweep workers; 0 = hardware concurrency
  std::string sweep_json;
  // serve/join (socket deployment) options.
  std::vector<PartyId> local_parties;   ///< --party
  std::vector<std::string> peers;       ///< --peers, one endpoint per party
  std::string listen;                   ///< --listen override for own entry
  bool n_given = false;
  bool backend_given = false;
  // bench serve (multi-instance throughput) options.
  std::uint32_t instances = 256;        ///< --instances
  Time interarrival = 0;                ///< --interarrival, ticks
  Duration linger = -1;                 ///< --linger, ticks (-1 = default)
  std::string bench_json;               ///< --json (hydra-bench-v1 out)
};

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: hydra <run|sweep|serve|join|bench|report|perf|top|list> [--key value | --key=value ...]\n"
               "keys: n ts ta dim eps delta protocol network adversary corrupt\n"
               "      workload scale seed seeds aggregation jobs sweep-json\n"
               "      trace-out metrics-json perf-json log-level monitors faults backend\n"
               "      stats-json stats-interval domain\n"
               "serve/join keys: party peers listen (docs/DEPLOYMENT.md)\n"
               "bench serve keys: instances interarrival linger json (+ run keys)\n"
               "report keys: trace merge merged-out metrics out format title\n"
               "perf keys: json baseline budget inflate input top\n"
               "top keys: input\n"
               "run `hydra list` for accepted values.\n");
  std::exit(2);
}

void list_values() {
  std::printf("protocol   : hybrid sync-lockstep async-mh\n");
  std::printf("network    : sync-worst sync-jitter sync-target sync-rush "
              "async-reorder async-partition async-exp\n");
  std::printf("adversary  : none silent crash equivocate outlier halt-rush "
              "spam straggler turncoat mixed\n");
  std::printf("workload   : ball simplex clustered collinear gaussian\n");
  std::printf("aggregation: midpoint centroid\n");
  std::printf("log-level  : off error info debug trace\n");
  std::printf("monitors   : off record strict\n");
  std::printf("faults     : dup(p=P[,skew=T][,from=I][,to=I]) "
              "reorder(p=P[,skew=T][,from=I][,to=I]) "
              "crash(party=I,at=T[,until=T]) "
              "partition(group=I.J...,from=T,until=T), ';'-separated\n");
  std::string backends;
  for (const auto& name : backend_names()) {
    if (!backends.empty()) backends += ' ';
    backends += name;
  }
  std::printf("backend    : %s\n", backends.c_str());
  std::string domains;
  for (const auto& name : hydra::domain::names()) {
    if (!domains.empty()) domains += ' ';
    domains += name;
  }
  std::printf("domain     : %s\n", domains.c_str());
  std::printf("format     : md html chrome (hydra report)\n");
}

/// The --key value / --key=value pairs after the subcommand. Duplicate keys
/// overwrite — pass multi-valued inputs as one glob/comma value, not
/// repeated flags.
std::map<std::string, std::string> parse_kv(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("malformed options");
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      kv[key.substr(0, eq)] = key.substr(eq + 1);
    } else {
      if (i + 1 >= argc) usage("malformed options");
      kv[key] = argv[++i];
    }
  }
  return kv;
}

Options parse(int argc, char** argv) {
  // The library default is kOff; the CLI surfaces errors unless silenced,
  // so e.g. an unwritable --trace-out path never fails without a message.
  set_log_level(LogLevel::kError);
  Options opts;
  auto& spec = opts.spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.network = Network::kSyncJitter;
  spec.adversary = Adversary::kSilent;
  spec.corruptions = 1;
  spec.workload = Workload::kUniformBall;
  spec.workload_scale = 10.0;
  spec.seed = 1;

  const auto kv = parse_kv(argc, argv);
  const auto num = [&](const char* key, auto fallback) {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    return static_cast<decltype(fallback)>(std::strtod(it->second.c_str(), nullptr));
  };
  opts.n_given = kv.count("n") > 0;
  opts.backend_given = kv.count("backend") > 0;
  spec.params.n = num("n", spec.params.n);
  spec.params.ts = num("ts", spec.params.ts);
  spec.params.ta = num("ta", spec.params.ta);
  spec.params.dim = num("dim", spec.params.dim);
  spec.params.eps = num("eps", spec.params.eps);
  spec.params.delta = num("delta", spec.params.delta);
  spec.corruptions = num("corrupt", spec.corruptions);
  spec.workload_scale = num("scale", spec.workload_scale);
  spec.seed = num("seed", spec.seed);
  opts.seeds = num("seeds", opts.seeds);
  opts.jobs = num("jobs", opts.jobs);
  opts.instances = num("instances", opts.instances);
  opts.interarrival = num("interarrival", opts.interarrival);
  opts.linger = num("linger", opts.linger);
  if (const auto it = kv.find("json"); it != kv.end()) opts.bench_json = it->second;

  if (const auto it = kv.find("protocol"); it != kv.end()) {
    const auto p = parse_protocol(it->second);
    if (!p) {
      // Actionable: name the rejected value AND every value that would work
      // (mirrors the backend/domain registry errors below).
      const std::string msg = "unknown protocol \"" + it->second +
                              "\"; registered protocols: hybrid sync-lockstep async-mh";
      usage(msg.c_str());
    }
    spec.protocol = *p;
  }
  if (const auto it = kv.find("network"); it != kv.end()) {
    const auto n = parse_network(it->second);
    if (!n) usage("unknown network");
    spec.network = *n;
  }
  if (const auto it = kv.find("adversary"); it != kv.end()) {
    const auto a = parse_adversary(it->second);
    if (!a) usage("unknown adversary");
    spec.adversary = *a;
  }
  if (const auto it = kv.find("workload"); it != kv.end()) {
    const auto w = parse_workload(it->second);
    if (!w) usage("unknown workload");
    spec.workload = *w;
  }
  if (const auto it = kv.find("trace-out"); it != kv.end()) spec.trace_out = it->second;
  if (const auto it = kv.find("metrics-json"); it != kv.end()) {
    spec.metrics_out = it->second;
  }
  if (const auto it = kv.find("perf-json"); it != kv.end()) {
    spec.perf_out = it->second;
  }
  if (const auto it = kv.find("stats-json"); it != kv.end()) {
    spec.stats_out = it->second;
  }
  if (const auto it = kv.find("stats-interval"); it != kv.end()) {
    spec.stats_interval_ms = std::strtoll(it->second.c_str(), nullptr, 10);
    if (spec.stats_interval_ms <= 0) usage("--stats-interval must be > 0 (ms)");
  }
  if (const auto it = kv.find("sweep-json"); it != kv.end()) {
    opts.sweep_json = it->second;
  }
  if (const auto it = kv.find("log-level"); it != kv.end()) {
    const auto level = parse_log_level(it->second);
    if (!level) usage("unknown log-level");
    set_log_level(*level);
  }
  if (const auto it = kv.find("monitors"); it != kv.end()) {
    const auto mode = obs::parse_monitor_mode(it->second);
    if (!mode) usage("unknown monitors mode (off|record|strict)");
    spec.monitors = *mode;
  }
  if (const auto it = kv.find("backend"); it != kv.end()) {
    const auto names = backend_names();
    if (std::find(names.begin(), names.end(), it->second) == names.end()) {
      // Actionable: name the rejected value AND every value that would work.
      std::string msg = "unknown backend \"" + it->second + "\"; registered backends:";
      for (const auto& name : names) msg += " " + name;
      usage(msg.c_str());
    }
    spec.backend = it->second;
  }
  if (const auto it = kv.find("domain"); it != kv.end()) {
    if (hydra::domain::find(it->second) == nullptr) {
      // Actionable: name the rejected value AND every value that would work.
      const std::string msg = "unknown domain \"" + it->second +
                              "\"; registered domains: " +
                              hydra::domain::known_names();
      usage(msg.c_str());
    }
    spec.domain = it->second;
  }
  // serve/join deployment keys (ignored by run/sweep).
  const auto split_commas = [](const std::string& s) {
    std::vector<std::string> out;
    std::string token;
    std::istringstream in(s);
    while (std::getline(in, token, ',')) out.push_back(token);
    return out;
  };
  if (const auto it = kv.find("party"); it != kv.end()) {
    for (const auto& token : split_commas(it->second)) {
      char* end = nullptr;
      const unsigned long id = std::strtoul(token.c_str(), &end, 10);
      if (end == token.c_str() || *end != '\0') usage("bad --party list");
      opts.local_parties.push_back(static_cast<PartyId>(id));
    }
  }
  if (const auto it = kv.find("peers"); it != kv.end()) {
    opts.peers = split_commas(it->second);
  }
  if (const auto it = kv.find("listen"); it != kv.end()) opts.listen = it->second;
  if (const auto it = kv.find("faults"); it != kv.end()) {
    std::string error;
    const auto plan = faults::parse_fault_plan(it->second, &error);
    if (!plan) usage(("bad --faults: " + error).c_str());
    if (!plan->empty() && plan->max_party() >= spec.params.n) {
      usage("--faults names a party >= n");
    }
    spec.faults = it->second;
  }
  if (const auto it = kv.find("aggregation"); it != kv.end()) {
    if (it->second == "centroid") {
      spec.params.aggregation = protocols::Aggregation::kCentroid;
    } else if (it->second == "midpoint") {
      spec.params.aggregation = protocols::Aggregation::kDiameterMidpoint;
    } else {
      usage("unknown aggregation");
    }
  }

  if (spec.domain != "euclid") {
    // Graph domains: hybrid only (the baselines' thresholds are
    // Euclidean-specific), the domain's required dimension, and a minimum
    // eps of one edge (fractional agreement is meaningless on vertices).
    const auto* dom = hydra::domain::find(spec.domain);
    if (spec.protocol != Protocol::kHybrid) {
      const std::string msg =
          "--domain=" + spec.domain +
          " runs the hybrid protocol only (the sync-lockstep and async-mh "
          "baselines are Euclidean-specific); drop --protocol";
      usage(msg.c_str());
    }
    if (const auto rd = dom->required_dim()) {
      if (kv.count("dim") > 0 && spec.params.dim != *rd) {
        const std::string msg =
            "--domain=" + spec.domain + " values are scalar vertex labels "
            "(dim " + std::to_string(*rd) + "); drop --dim or pass --dim " +
            std::to_string(*rd);
        usage(msg.c_str());
      }
      spec.params.dim = *rd;
    }
    const double min_eps = dom->min_eps();
    if (kv.count("eps") == 0) {
      spec.params.eps = std::max(spec.params.eps, min_eps);
    } else if (spec.params.eps < min_eps) {
      const std::string msg =
          "--domain=" + spec.domain + " needs --eps >= " + fmt(min_eps) +
          " (vertex labels are integers; 1-agreement means adjacent vertices)";
      usage(msg.c_str());
    }
  }

  if (spec.protocol == Protocol::kHybrid) {
    if (spec.domain == "euclid") {
      if (!spec.params.feasible()) {
        usage("params violate (D+1) ts + ta < n (or n <= 3 ts)");
      }
    } else if (!hydra::domain::find(spec.domain)
                    ->feasible(spec.params.n, spec.params.ts, spec.params.ta,
                               spec.params.dim)) {
      const std::string msg = "--domain=" + spec.domain +
                              " needs n > 3 ts and n > 2 ts + ta";
      usage(msg.c_str());
    }
  }
  if (spec.corruptions >= spec.params.n) usage("corrupt must be < n");
  return opts;
}

/// The whole content of `path`; nullopt when it cannot be read.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Expands a comma-separated list of paths and/or glob patterns into sorted
/// deduplicated paths. A token that matches nothing is kept literally so the
/// caller's open() produces a file-name-specific error instead of a silent
/// no-op on a typo.
std::vector<std::string> expand_inputs(const std::string& patterns) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream in(patterns);
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    glob_t g{};
    if (::glob(token.c_str(), 0, nullptr, &g) == 0) {
      for (std::size_t i = 0; i < g.gl_pathc; ++i) out.emplace_back(g.gl_pathv[i]);
    } else {
      out.push_back(token);
    }
    ::globfree(&g);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// SIGTERM/SIGINT in serve/join: flush every registered sink (the lock-free
/// flush registry in obs/trace.cpp exists for exactly this handler), then
/// _exit — worker threads are mid-run, so running static destructors under
/// them would race. The partial trace stays valid JSONL (line-buffered, so
/// no torn lines) and merges with the surviving processes' traces; the
/// missing `end` marker is how the merge knows this process was killed.
extern "C" void flush_and_exit(int /*signal*/) {
  obs::flush_all_sinks();
  std::_Exit(130);
}

int cmd_run(const Options& opts) {
  const auto result = execute(opts.spec);
  Table table({"metric", "value"});
  table.row({"protocol", to_string(opts.spec.protocol)});
  table.row({"network", to_string(opts.spec.network)});
  table.row({"adversary", to_string(opts.spec.adversary) + " x" +
                              std::to_string(opts.spec.corruptions)});
  table.row({"live", fmt_ok(result.verdict.live)});
  table.row({"valid", fmt_ok(result.verdict.valid)});
  table.row({"agree", fmt_ok(result.verdict.agreed)});
  table.row({"output diameter", fmt(result.verdict.output_diameter)});
  table.row({"input diameter", fmt(result.input_diameter)});
  table.row({"rounds (Delta)", fmt(result.rounds)});
  table.row({"messages", fmt(result.messages)});
  table.row({"bytes", fmt(result.bytes)});
  table.row({"T estimates", fmt(result.min_estimate) + ".." + fmt(result.max_estimate)});
  table.row({"max msgs by one party", fmt(result.max_sent_by_party)});
  table.row({"safe-area fallbacks", fmt(result.safe_area_fallbacks)});
  // Only non-default backends/domains get extra rows: the default table is
  // part of the byte-identity contract for recorded runs.
  if (opts.spec.domain != "euclid") table.row({"domain", opts.spec.domain});
  if (opts.spec.backend != "sim") {
    table.row({"backend", opts.spec.backend});
    table.row({"wall clock (ms)", std::to_string(result.wall_ms)});
    if (result.timed_out) {
      table.row({"timed out", result.timeout_detail.empty()
                                  ? "YES"
                                  : "YES: " + result.timeout_detail});
    }
    if (opts.spec.backend == "tcp" || opts.spec.backend == "uds") {
      // Hardened-ingress counters: nonzero means a peer sent frames that
      // failed the authenticated-sender or decode checks.
      table.row({"frames auth-dropped", fmt(result.frames_auth_dropped)});
      table.row({"frames decode-dropped", fmt(result.frames_decode_dropped)});
    }
  }
  if (!opts.spec.faults.empty()) {
    table.row({"faults", opts.spec.faults});
    table.row({"fault drops", fmt(result.fault_drops)});
    table.row({"fault dups", fmt(result.fault_dups)});
    table.row({"fault delays", fmt(result.fault_delays)});
  }
  if (opts.spec.monitors != obs::MonitorMode::kOff) {
    table.row({"monitors", obs::to_string(opts.spec.monitors)});
    table.row({"monitor violations", fmt(result.monitor_violations)});
    if (result.monitor_aborted) table.row({"monitor abort", "STRICT ABORT"});
  }
  table.print();
  if (result.monitor_violations > 0) {
    std::printf("\ninvariant violations:\n");
    for (const auto& v : result.violations) {
      std::printf("  t=%lld party=%u it=%u cause=%llu [%s] %s\n",
                  static_cast<long long>(v.at), v.party, v.iteration,
                  static_cast<unsigned long long>(v.cause), v.monitor.c_str(),
                  v.detail.c_str());
    }
  }
  return result.verdict.d_aa() && result.monitor_violations == 0 ? 0 : 1;
}

/// serve/join: host --party over real sockets, peers named by --peers. One
/// spec, many processes — each judges (and exits by) its LOCAL parties only.
int cmd_serve(Options opts) {
  auto& spec = opts.spec;
  if (opts.local_parties.empty()) usage("serve/join requires --party I[,J...]");
  if (opts.peers.empty()) usage("serve/join requires --peers A0,...,A(n-1)");
  if (opts.n_given && opts.peers.size() != spec.params.n) {
    usage("--peers must list exactly n endpoints (or omit --n)");
  }
  spec.params.n = opts.peers.size();
  if (!opts.backend_given) spec.backend = "tcp";
  if (spec.backend != "tcp" && spec.backend != "uds") {
    usage("serve/join requires a socket backend (tcp or uds)");
  }
  for (const PartyId id : opts.local_parties) {
    if (id >= spec.params.n) usage("--party id >= n (the --peers count)");
  }
  if (!opts.listen.empty()) {
    if (opts.local_parties.size() != 1) {
      usage("--listen needs exactly one --party (it overrides one endpoint)");
    }
    opts.peers[opts.local_parties.front()] = opts.listen;
  }
  if (spec.backend == "uds") {
    // Parse-time validation: a path past the sockaddr_un::sun_path limit
    // would otherwise die much later in an inscrutable bind/connect failure.
    for (const auto& endpoint : opts.peers) {
      const std::string error = transport::validate_uds_endpoint(endpoint);
      if (!error.empty()) usage(error.c_str());
    }
  }
  spec.socket_endpoints = opts.peers;
  spec.socket_local = opts.local_parties;
  std::signal(SIGTERM, &flush_and_exit);
  std::signal(SIGINT, &flush_and_exit);
  if (spec.protocol == Protocol::kHybrid && !spec.params.feasible()) {
    usage("params violate (D+1) ts + ta < n (or n <= 3 ts) for the --peers count");
  }
  if (spec.corruptions >= spec.params.n) usage("corrupt must be < n");
  return cmd_run(opts);
}

/// bench serve: sustain open-loop multi-instance load on a SOCKET backend in
/// one process (every non-self message crosses the OS) and report
/// instances/sec + decision-latency percentiles, optionally as a
/// hydra-bench-v1 JSON document (--json).
int cmd_bench_serve(const Options& opts) {
  serve::ServeSpec spec;
  spec.params = opts.spec.params;
  spec.workload = opts.spec.workload;
  spec.workload_scale = opts.spec.workload_scale;
  spec.network = opts.spec.network;
  spec.seed = opts.spec.seed;
  spec.monitors = opts.spec.monitors;
  spec.backend = opts.backend_given ? opts.spec.backend : "uds";
  if (spec.backend != "tcp" && spec.backend != "uds") {
    usage("bench serve sustains load on a socket backend (tcp or uds)");
  }
  spec.instances = opts.instances;
  spec.interarrival = opts.interarrival;
  spec.linger = opts.linger;
  spec.us_per_tick = opts.spec.us_per_tick;
  spec.timeout_ms = opts.spec.timeout_ms;
  if (spec.instances == 0) usage("--instances must be >= 1");

  const auto result = serve::run_serve(spec);
  const double wall_s = static_cast<double>(result.wall_ms) / 1000.0;
  const double rate =
      wall_s > 0.0 ? static_cast<double>(result.decided) / wall_s : 0.0;
  const Time p50 = serve::latency_percentile(result, 50.0);
  const Time p99 = serve::latency_percentile(result, 99.0);
  std::printf("bench serve: backend=%s n=%zu instances=%u decided=%u pass=%s\n",
              spec.backend.c_str(), spec.params.n, spec.instances,
              result.decided, result.all_pass ? "yes" : "no");
  std::printf("  instances/sec     %.1f  (wall %.2fs)\n", rate, wall_s);
  std::printf("  decision latency  p50 %lld  p99 %lld  ticks\n",
              static_cast<long long>(p50), static_cast<long long>(p99));
  std::printf("  wire              %llu msgs  %llu bytes  frames/flush %.1f\n",
              static_cast<unsigned long long>(result.messages),
              static_cast<unsigned long long>(result.bytes),
              result.transport_health.flushes > 0
                  ? static_cast<double>(result.transport_health.frames_sent) /
                        static_cast<double>(result.transport_health.flushes)
                  : 0.0);
  std::printf("  slab              slots %zu  live-peak %zu  late-drops %llu\n",
              result.slots_allocated, result.live_peak,
              static_cast<unsigned long long>(result.late_dropped));
  if (spec.monitors != obs::MonitorMode::kOff) {
    std::printf("  monitors          %llu violations\n",
                static_cast<unsigned long long>(result.monitor_violations));
  }

  if (!opts.bench_json.empty()) {
    const double us_per_instance =
        result.decided > 0 ? static_cast<double>(result.wall_ms) * 1000.0 /
                                 static_cast<double>(result.decided)
                           : 0.0;
    const std::vector<BenchMetric> metrics = {
        {"serve." + spec.backend + ".us_per_instance", "us/instance",
         us_per_instance, result.decided},
        {"serve." + spec.backend + ".decision_p99_ticks", "ticks",
         static_cast<double>(p99), result.decided},
    };
    if (!write_bench_json(opts.bench_json, "bench_serve", metrics)) return 1;
  }
  return result.decided == spec.instances && result.all_pass &&
                 result.monitor_violations == 0
             ? 0
             : 1;
}

/// "t.jsonl" -> "t.s7.jsonl"; extensionless paths get the suffix appended.
std::string with_seed_suffix(const std::string& path, std::uint64_t seed) {
  if (path.empty()) return path;
  const std::string suffix = ".s" + std::to_string(seed);
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

int cmd_sweep(const Options& opts) {
  // One spec per seed; per-seed output paths keep runs from clobbering each
  // other whatever order the pool finishes them in.
  std::vector<RunSpec> grid;
  grid.reserve(opts.seeds);
  for (std::uint64_t s = 0; s < opts.seeds; ++s) {
    RunSpec spec = opts.spec;
    spec.seed = s + 1;
    spec.trace_out = with_seed_suffix(opts.spec.trace_out, spec.seed);
    spec.metrics_out = with_seed_suffix(opts.spec.metrics_out, spec.seed);
    spec.perf_out = with_seed_suffix(opts.spec.perf_out, spec.seed);
    grid.push_back(std::move(spec));
  }

  const auto results = run_sweep(grid, opts.jobs);

  std::size_t pass = 0;
  std::vector<std::uint64_t> failures;
  std::uint64_t monitor_violations = 0;
  Stats rounds;
  Stats messages;
  Stats diameters;
  Stats estimates;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    if (result.verdict.d_aa()) {
      ++pass;
    } else {
      failures.push_back(grid[i].seed);
    }
    monitor_violations += result.monitor_violations;
    rounds.add(result.rounds);
    messages.add(static_cast<double>(result.messages));
    diameters.add(result.verdict.output_diameter);
    estimates.add(static_cast<double>(result.min_estimate));
  }
  std::printf("%zu/%llu runs satisfied D-AA (%zu jobs)\n\n", pass,
              static_cast<unsigned long long>(opts.seeds),
              resolve_jobs(opts.jobs));

  Table table({"metric", "mean", "min", "p50", "p95", "max"});
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  const auto row = [&](const char* name, const Stats& st) {
    table.row({name, fmt(st.mean()), fmt(st.min()),
               fmt(st.percentile(50).value_or(nan)),
               fmt(st.percentile(95).value_or(nan)), fmt(st.max())});
  };
  row("rounds (Delta)", rounds);
  row("messages", messages);
  row("output diameter", diameters);
  row("T estimate (min)", estimates);
  table.print();

  if (!failures.empty()) {
    std::printf("\nfailing seeds:");
    for (auto s : failures) std::printf(" %llu", static_cast<unsigned long long>(s));
    std::printf("\n");
  }
  if (monitor_violations > 0) {
    std::printf("\n%llu invariant-monitor violation(s) across the sweep\n",
                static_cast<unsigned long long>(monitor_violations));
  }
  if (!opts.sweep_json.empty() &&
      !write_sweep_summary_json(opts.sweep_json, grid, results, opts.jobs)) {
    return 1;
  }
  // Exit-code contract (README): any D-AA failure OR any recorded monitor
  // violation makes the sweep exit non-zero, so scripted sweeps can't
  // silently pass.
  return failures.empty() && monitor_violations == 0 ? 0 : 1;
}

int cmd_report(int argc, char** argv) {
  const auto kv = parse_kv(argc, argv);
  const auto trace_path = kv.find("trace");
  const auto merge_glob = kv.find("merge");
  if (trace_path == kv.end() && merge_glob == kv.end()) {
    usage("report requires --trace PATH or --merge GLOB");
  }
  if (trace_path != kv.end() && merge_glob != kv.end()) {
    usage("--trace and --merge are mutually exclusive");
  }

  // --merge: stitch the per-process traces into one timeline (re-evaluating
  // the global monitors when every process completed) and report on THAT.
  // The merged trace replaces the --trace input; the violation gate below
  // makes `hydra report --merge ...` usable directly as a CI check.
  std::string merged;
  std::uint64_t merge_violations = 0;
  std::size_t merge_orphans = 0;
  std::string source_name;
  if (merge_glob != kv.end()) {
    const auto paths = expand_inputs(merge_glob->second);
    if (paths.empty()) {
      std::fprintf(stderr, "error: --merge '%s' names no files\n",
                   merge_glob->second.c_str());
      return 1;
    }
    const auto result = obs::merge_traces(paths);
    if (!result.ok()) {
      std::fprintf(stderr, "error: trace merge failed: %s\n",
                   result.error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "merged %zu trace(s): %zu events, %zu orphan deliver(s), "
                 "%s, %llu violation(s)\n",
                 result.files, result.events, result.orphans,
                 result.reevaluated ? "global monitors re-evaluated"
                                    : "incomplete (no re-evaluation)",
                 static_cast<unsigned long long>(result.violations));
    if (const auto out = kv.find("merged-out"); out != kv.end()) {
      std::ofstream f(out->second);
      if (!f) {
        std::fprintf(stderr, "error: cannot write %s\n", out->second.c_str());
        return 1;
      }
      f << result.merged;
    }
    merged = result.merged;
    merge_violations = result.violations;
    // A complete merge holds every process's sends, so each deliver must
    // find its cause; after a killed process orphans are expected.
    if (result.complete) merge_orphans = result.orphans;
    source_name = merge_glob->second;
  } else {
    source_name = trace_path->second;
  }

  std::ifstream trace_file;
  std::istringstream merged_stream(merged);
  if (trace_path != kv.end()) {
    trace_file.open(trace_path->second);
    if (!trace_file) {
      std::fprintf(stderr, "error: cannot read trace %s\n",
                   trace_path->second.c_str());
      return 1;
    }
  }
  std::istream& trace =
      trace_path != kv.end() ? static_cast<std::istream&>(trace_file)
                             : static_cast<std::istream&>(merged_stream);

  std::string metrics;
  if (const auto it = kv.find("metrics"); it != kv.end()) {
    auto text = read_file(it->second);
    if (!text || !obs::parse_json(*text)) {
      std::fprintf(stderr, "error: cannot read metrics %s as a JSON document\n",
                   it->second.c_str());
      return 1;
    }
    metrics = std::move(*text);
  }

  obs::ReportOptions options;
  bool chrome = false;
  if (const auto it = kv.find("format"); it != kv.end()) {
    if (it->second == "html") {
      options.format = obs::ReportOptions::Format::kHtml;
    } else if (it->second == "chrome") {
      chrome = true;
    } else if (it->second != "md") {
      usage("unknown format (md|html|chrome)");
    }
  }
  if (const auto it = kv.find("title"); it != kv.end()) options.title = it->second;

  // chrome writes the trace itself as Chrome trace-event JSON
  // (obs/convert.hpp) instead of a report.
  const auto render = [&](std::ostream& out) {
    return chrome ? obs::chrome_trace_from_jsonl(trace, out)
                  : obs::render_report(trace, metrics, options, out);
  };
  std::size_t events = 0;
  if (const auto it = kv.find("out"); it != kv.end()) {
    std::ofstream out(it->second);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", it->second.c_str());
      return 1;
    }
    events = render(out);
  } else {
    events = render(std::cout);
  }
  if (events == 0) {
    std::fprintf(stderr, "error: no trace events in %s\n", source_name.c_str());
    return 1;
  }
  // Merge mode gates on the GLOBAL verdict: re-evaluated violations (or the
  // surviving per-process ones when a process died) fail the command, and
  // so do orphan delivers in a complete merge.
  if (merge_violations > 0) {
    std::fprintf(stderr, "error: %llu invariant violation(s) in merged trace\n",
                 static_cast<unsigned long long>(merge_violations));
    return 1;
  }
  if (merge_orphans > 0) {
    std::fprintf(stderr,
                 "error: %zu orphan deliver(s) in complete merged trace (a "
                 "deliver whose send is missing)\n",
                 merge_orphans);
    return 1;
  }
  return 0;
}

/// Folds `from` into the accumulated per-phase rows: counts and times sum,
/// min is the min of nonzero mins (0 = "no samples", not "instant"), max is
/// the max of maxes, and the log2 latency buckets add element-wise (their
/// bucket boundaries are position-fixed, so index i always means [2^i,
/// 2^(i+1)) whatever length each file trimmed its trailing zeros to).
void merge_phase_rows(std::map<std::string, harness::PhaseRow>& acc,
                      const std::vector<harness::PhaseRow>& from) {
  for (const auto& row : from) {
    auto& a = acc[row.name];
    if (a.name.empty()) {
      a = row;
      continue;
    }
    a.count += row.count;
    a.total_ns += row.total_ns;
    a.self_ns += row.self_ns;
    if (row.min_ns != 0) {
      a.min_ns = a.min_ns == 0 ? row.min_ns : std::min(a.min_ns, row.min_ns);
    }
    a.max_ns = std::max(a.max_ns, row.max_ns);
    if (a.buckets.size() < row.buckets.size()) {
      a.buckets.resize(row.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < row.buckets.size(); ++i) {
      a.buckets[i] += row.buckets[i];
    }
  }
}

int cmd_perf(int argc, char** argv) {
  const auto kv = parse_kv(argc, argv);

  // The documents select the mode: captured agreebench output or one
  // hydra-bench-v1 file stands in for the kernel measurement below, so CI
  // gates bench artifacts against their baselines without re-measuring.
  const auto input = kv.find("input");
  const auto paths =
      input != kv.end() ? expand_inputs(input->second) : std::vector<std::string>{};
  std::vector<std::string> texts;
  for (const auto& path : paths) {
    auto text = read_file(path);
    if (!text) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return 1;
    }
    texts.push_back(std::move(*text));
  }
  std::optional<BenchDoc> bench;
  if (!texts.empty() && is_agreebench_output(texts[0])) {
    std::vector<BenchDoc> runs;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      std::string error;
      auto run = parse_agreebench_output(texts[i], &error);
      if (!run) {
        std::fprintf(stderr, "error: %s: %s\n", paths[i].c_str(), error.c_str());
        return 1;
      }
      if (!runs.empty() && run->context != runs[0].context) {
        std::fprintf(stderr, "error: %s stamps a different build than %s\n",
                     paths[i].c_str(), paths[0].c_str());
        return 1;
      }
      runs.push_back(std::move(*run));
    }
    bench = median_of(runs);
  } else if (texts.size() == 1) {
    bench = parse_bench_json(texts[0]);
  }

  // Phase-profile mode: render --perf-json documents. Several files (a glob
  // or comma list, e.g. every process of a distributed run or every seed of
  // a sweep) merge into one attribution table.
  if (input != kv.end() && !bench) {
    if (paths.empty()) {
      std::fprintf(stderr, "error: --input '%s' names no files\n",
                   input->second.c_str());
      return 1;
    }
    std::map<std::string, harness::PhaseRow> acc;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const auto rows = parse_perf_json(texts[i]);
      if (!rows) {
        std::fprintf(stderr, "error: %s is not a hydra-perf-v1 document\n",
                     paths[i].c_str());
        return 1;
      }
      merge_phase_rows(acc, *rows);
    }
    std::vector<harness::PhaseRow> merged;
    merged.reserve(acc.size());
    for (auto& [name, row] : acc) merged.push_back(std::move(row));
    std::size_t top = 0;
    if (const auto t = kv.find("top"); t != kv.end()) {
      top = static_cast<std::size_t>(std::strtoull(t->second.c_str(), nullptr, 10));
    }
    if (paths.size() > 1) {
      std::printf("merged %zu phase profiles\n", paths.size());
    }
    std::fputs(render_phase_report(std::move(merged), top).c_str(), stdout);
    return 0;
  }

  // Kernel mode: measure the geometry kernels on fixed inputs, unless a
  // bench document stands in for the measurement.
  const std::string bench_name = bench ? bench->bench : "geometry";
  const BenchContext context = bench ? bench->context : BenchContext{};
  auto metrics = bench ? std::move(bench->metrics) : measure_geometry_kernels();
  // --inflate F self-tests the gate: CI inflates a file against itself and
  // requires exit 1, proving the gate can fail before trusting its passes.
  if (const auto it = kv.find("inflate"); it != kv.end()) {
    const double inflate = std::strtod(it->second.c_str(), nullptr);
    for (auto& m : metrics) m.value *= inflate;
    std::printf("(self-test: current values inflated by %gx)\n", inflate);
  }
  Table table({"metric", "unit", "value", "repetitions"});
  for (const auto& m : metrics) {
    table.row({m.name, m.unit, fmt(m.value), fmt(m.repetitions)});
  }
  table.print();

  if (const auto it = kv.find("json"); it != kv.end()) {
    if (!write_bench_json(it->second, bench_name, metrics, context)) return 1;
  }
  if (const auto it = kv.find("baseline"); it != kv.end()) {
    const auto text = read_file(it->second);
    const auto baseline = text ? parse_bench_json(*text) : std::nullopt;
    if (!baseline) {
      std::fprintf(stderr, "error: %s is not a hydra-bench-v1 document\n",
                   it->second.c_str());
      return 1;
    }
    double budget = 0.10;
    if (const auto b = kv.find("budget"); b != kv.end()) {
      budget = std::strtod(b->second.c_str(), nullptr);
    }
    std::vector<std::string> regressions;
    std::printf("\nvs %s (budget %+.0f%%):\n", it->second.c_str(), 100.0 * budget);
    std::fputs(
        render_delta_table(metrics, baseline->metrics, budget, &regressions).c_str(),
        stdout);
    if (!regressions.empty()) {
      std::printf("\nREGRESSION:");
      for (const auto& name : regressions) std::printf(" %s", name.c_str());
      std::printf("\n");
      return 1;
    }
  }
  return 0;
}

/// `hydra top --input stats.jsonl`: the newest hydra-stats-v1 heartbeat per
/// process (multi-process runs append to separate files, but merging them
/// with `cat` also works — lines are self-identifying via `proc`), plus
/// per-party progress from those newest lines. Reads a snapshot; re-run it
/// (or `watch hydra top ...`) to follow a live run.
int cmd_top(int argc, char** argv) {
  const auto kv = parse_kv(argc, argv);
  const auto input = kv.find("input");
  if (input == kv.end()) usage("top requires --input STATS_JSONL");

  std::map<std::uint64_t, obs::JsonValue> latest;  ///< by proc tag (0 = untagged)
  std::uint64_t skipped = 0;
  for (const auto& path : expand_inputs(input->second)) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto beat = obs::parse_json(line);
      if (!beat || beat->str("schema") != "hydra-stats-v1") {
        ++skipped;
        continue;
      }
      // Later lines supersede earlier ones per process; file order is
      // emission order within one process by construction.
      latest[beat->u64("proc")] = std::move(*beat);
    }
  }
  if (latest.empty()) {
    std::fprintf(stderr, "error: no hydra-stats-v1 heartbeats in %s%s\n",
                 input->second.c_str(),
                 skipped > 0 ? " (lines present but not parseable)" : "");
    return 1;
  }

  Table procs({"proc", "uptime (s)", "msgs", "bytes", "dropped", "egress q",
               "mailbox q", "decided", "round", "state"});
  for (const auto& [proc, o] : latest) {
    const std::uint64_t dropped = o.u64("auth_dropped") + o.u64("decode_dropped");
    procs.row({proc == 0 ? std::string("-") : std::to_string(proc),
               fmt(o.real("ms") / 1000.0), fmt(o.u64("messages")), fmt(o.u64("bytes")),
               fmt(dropped), fmt(o.u64("egress_depth")),
               fmt(o.u64("mailbox_depth")), fmt(o.u64("decided")),
               fmt(o.u64("round")),
               o.u64("final") != 0 ? "final" : "live"});
  }
  procs.print();

  Table parties({"party", "proc", "finished", "events", "round"});
  bool any_party = false;
  for (const auto& [proc, o] : latest) {
    // "parties":[[id,finished,events,round],...]
    for (const auto& row : o["parties"].items()) {
      const auto cell = row.reals();
      if (cell.size() < 4) continue;
      any_party = true;
      parties.row({fmt(cell[0]), proc == 0 ? std::string("-") : std::to_string(proc),
                   cell[1] != 0.0 ? "yes" : "no", fmt(cell[2]), fmt(cell[3])});
    }
  }
  if (any_party) {
    std::printf("\n");
    parties.print();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "list") {
    list_values();
    return 0;
  }
  if (command == "report") return cmd_report(argc, argv);
  if (command == "perf") return cmd_perf(argc, argv);
  if (command == "top") return cmd_top(argc, argv);
  if (command == "bench") {
    // `hydra bench serve [--keys]`: shift argv past "bench" so the shared
    // option parser sees its usual <command> [--key value] shape.
    if (argc < 3 || std::string(argv[2]) != "serve") {
      usage("bench requires a mode: hydra bench serve [--keys]");
    }
    return cmd_bench_serve(parse(argc - 1, argv + 1));
  }
  const auto opts = parse(argc, argv);
  if (command == "run") return cmd_run(opts);
  if (command == "sweep") return cmd_sweep(opts);
  if (command == "serve" || command == "join") return cmd_serve(opts);
  usage("unknown command");
}
