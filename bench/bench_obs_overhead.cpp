// Guardrail for the observability layer: with obs disabled, the simulator's
// hot path must cost < 2% over the same simulator with observability
// compiled out.
//
// The two sides are child processes running obs_overhead_side.cpp.
// bench_obs_overhead_instrumented links the libraries like every program.
// bench_obs_overhead_baseline compiles the sources of the simulator and of
// every library it links — src/sim/simulation.cpp itself, not a copy —
// under HYDRA_OBS_COMPILED_OUT (obs/context.hpp), which folds every hook
// away; it has to be its own executable because every object in it must see
// that definition. Each child times one simulation per request, so the pipe
// round trip stays outside both timed regions.
//
// Both sides run the same message-flood workload, pinned to one CPU; the
// gate statistic is the median ratio over back-to-back single-sim A/B pairs,
// which cancels CPU-frequency drift. Exits nonzero when the overhead bound
// is violated, so scripts can gate on it; deliberately NOT registered in
// ctest — wall-clock comparisons are too noisy for a tier-1 gate.
//
// The instrumented side also times runs with obs enabled and a record-mode
// invariant-monitor host installed, so the *monitored* overhead is reported
// alongside — the pass/fail gate stays on the disabled path only (monitors
// are opt-in). `--json PATH` writes the measurements in the shared
// hydra-bench-v1 schema (bench_json.hpp) as a machine-readable artifact for
// CI trend tracking.
//
// The profiler (obs/prof.hpp) is compiled into the instrumented side but no
// Profiler is installed, so this bench also gates the profiler's DISABLED
// cost: every HYDRA_PROF_SCOPE on the measured path must stay within the
// same 2% budget (one thread-local load + branch each).
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs_overhead_side.hpp"

using hydra::benchobs::SideReply;

namespace {

constexpr int kWarmup = 2;  ///< untimed sims per side after each start
constexpr int kSimsPerTrial = 8;
constexpr int kTrials = 18;
constexpr int kPairs = kSimsPerTrial * kTrials;  ///< single-sim A/B pairs

/// One side (obs_overhead_side.cpp), running as a child process on two
/// pipes. The executables sit next to this one.
class Side {
 public:
  explicit Side(const char* name)
      : path_(std::filesystem::read_symlink("/proc/self/exe").parent_path() / name) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0) return;
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
        ::close(fd);
      }
      ::execl(path_.c_str(), path_.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    request_fd_ = to_child[1];
    reply_fd_ = from_child[0];
  }

  ~Side() {
    if (request_fd_ >= 0) ::close(request_fd_);  // EOF: the child exits
    if (reply_fd_ >= 0) ::close(reply_fd_);
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
  }

  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;

  /// Seconds of one timed simulation ('r', or 'm' for monitored). Exits the
  /// bench if the child does not answer.
  double time_one(char request = 'r') {
    SideReply reply;
    auto* out = reinterpret_cast<char*>(&reply);
    std::size_t got = 0;
    if (::write(request_fd_, &request, 1) == 1) {
      while (got < sizeof reply) {
        const ssize_t r = ::read(reply_fd_, out + got, sizeof reply - got);
        if (r <= 0) break;
        got += static_cast<std::size_t>(r);
      }
    }
    if (got != sizeof reply || reply.events == 0) {
      std::fprintf(stderr, "bench_obs_overhead: %s did not answer\n", path_.c_str());
      std::exit(2);
    }
    events_ += reply.events;
    return reply.seconds;
  }

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  std::filesystem::path path_;
  pid_t pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
  std::uint64_t events_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = hydra::bench::consume_json_path(argc, argv);
  if (argc != 1) {
    std::fprintf(stderr, "usage: bench_obs_overhead [--json PATH]\n");
    return 2;
  }

  // A side that dies must surface as a failed write, not kill this process.
  std::signal(SIGPIPE, SIG_IGN);
  // Both sides inherit this process's CPU, so neither gets a faster core or
  // a quieter hyperthread sibling than the other. Unpinned if refused.
  if (const int here = ::sched_getcpu(); here >= 0) {
    cpu_set_t cpu;
    CPU_ZERO(&cpu);
    CPU_SET(static_cast<unsigned>(here), &cpu);
    ::sched_setaffinity(0, sizeof cpu, &cpu);
  }

  // Single-sim A/B pairs, MEDIAN ratio across pairs. Comparing global minima
  // (best baseline vs best instrumented) lets a CPU-frequency burst during
  // one loop but not the other fabricate an overhead; pairing at the finest
  // granularity (one ~2 ms simulation each, back to back) keeps both sides
  // of a pair inside the same frequency/thermal phase, and alternating which
  // side runs first cancels the residual position bias. Each trial starts
  // both sides afresh: a process keeps its address-space layout for life,
  // and a layout that happens to suit one side's caches better would bias
  // every pair it runs. The median over the pairs is then robust in both
  // directions: machine noise scatters ratios symmetrically around 1, while
  // a genuine instrumentation cost shifts every ratio. A shared CI machine
  // can still contaminate one whole measurement with transient load, so the
  // gate allows up to three attempts and keeps the best — a real regression
  // fails all of them.
  std::uint64_t events = 0;
  const auto measure_pairs = [&](double& base_out, double& inst_out) {
    std::vector<double> ratios;
    ratios.reserve(kPairs);
    double base_total = 0.0;
    double inst_total = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Side instrumented("bench_obs_overhead_instrumented");
      Side baseline("bench_obs_overhead_baseline");
      // Warmup: fault in code, populate allocator caches on both sides.
      for (int i = 0; i < kWarmup; ++i) {
        baseline.time_one();
        instrumented.time_one();
      }
      for (int t = 0; t < kSimsPerTrial; ++t) {
        double base = 0.0;
        double inst = 0.0;
        if (t % 2 == 0) {
          base = baseline.time_one();
          inst = instrumented.time_one();
        } else {
          inst = instrumented.time_one();
          base = baseline.time_one();
        }
        ratios.push_back(inst / base);
        base_total += base;
        inst_total += inst;
      }
      events += instrumented.events() + baseline.events();
    }
    std::sort(ratios.begin(), ratios.end());
    // Per-trial (kSimsPerTrial sims) means, for display/JSON.
    base_out = base_total / kTrials;
    inst_out = inst_total / kTrials;
    return ratios[ratios.size() / 2];
  };

  constexpr double kBudget = 0.02;
  constexpr int kMaxAttempts = 3;
  double best_base = 0.0;
  double best_inst = 0.0;
  double best_ratio = measure_pairs(best_base, best_inst);
  for (int a = 1; a < kMaxAttempts && best_ratio - 1.0 >= kBudget; ++a) {
    double base = 0.0;
    double inst = 0.0;
    const double ratio = measure_pairs(base, inst);
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best_base = base;
      best_inst = inst;
    }
  }

  // The monitored loop is informational (not gated), so it runs after the
  // gated pairs to leave their trial cadence untouched.
  Side monitored("bench_obs_overhead_instrumented");
  double best_mon = 1e9;
  monitored.time_one('m');
  for (int t = 0; t < kTrials; ++t) {
    double trial = 0.0;
    for (int i = 0; i < kSimsPerTrial; ++i) trial += monitored.time_one('m');
    best_mon = std::min(best_mon, trial);
  }
  events += monitored.events();

  const double overhead = best_ratio - 1.0;
  const double mon_overhead = best_mon / best_base - 1.0;
  std::printf("obs-disabled overhead: %.2f%%  (median ratio over %d A/B pairs; "
              "mean instrumented %.1f ms, mean baseline %.1f ms per %d sims; "
              "%llu events)\n",
              overhead * 100.0, kPairs, best_inst * 1e3, best_base * 1e3,
              kSimsPerTrial, static_cast<unsigned long long>(events));
  std::printf("monitors-on overhead:  %.2f%%  (monitored %.1f ms; informational, "
              "not gated)\n",
              mon_overhead * 100.0, best_mon * 1e3);
  const bool pass = overhead < kBudget;

  if (!json_path.empty()) {
    // hydra-bench-v1, like every other bench. The gate statistic is the
    // ratio metric; the ms rows give it scale. Units are lower-is-better by
    // schema convention, which holds for all of these.
    const std::vector<hydra::harness::BenchMetric> metrics{
        {.name = "obs.disabled_overhead",
         .unit = "ratio",
         .value = overhead,
         .repetitions = kPairs},
        {.name = "obs.monitor_overhead",
         .unit = "ratio",
         .value = mon_overhead,
         .repetitions = kTrials},
        {.name = "obs.baseline",
         .unit = "ms/trial",
         .value = best_base * 1e3,
         .repetitions = kPairs},
        {.name = "obs.disabled",
         .unit = "ms/trial",
         .value = best_inst * 1e3,
         .repetitions = kPairs},
        {.name = "obs.monitored",
         .unit = "ms/trial",
         .value = best_mon * 1e3,
         .repetitions = kTrials},
    };
    if (!hydra::harness::write_bench_json(json_path, "obs_overhead", metrics)) {
      return 2;
    }
  }

  if (!pass) {
    std::printf("FAIL: disabled-path overhead >= 2%%\n");
    return 1;
  }
  std::printf("OK: below the 2%% budget\n");
  return 0;
}
