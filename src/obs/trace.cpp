#include "obs/trace.hpp"

#include <atomic>

#include "common/log.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"

namespace hydra::obs {
namespace {

// Crash-safe flush registry: fixed lock-free slot table so the signal
// handler in `hydra serve`/`join` can flush without taking a lock.
constexpr std::size_t kMaxFlushTargets = 16;
std::atomic<std::FILE*> g_flush_targets[kMaxFlushTargets]{};

// Resolves through trace() so log lines land in the emitting thread's
// per-run sink.
void log_to_trace(LogLevel level, const char* msg) {
  if (TraceSink* sink = trace()) {
    sink->log(static_cast<int>(level), msg);
  }
}

}  // namespace

TraceSink::TraceSink(const std::string& path) : file_(std::fopen(path.c_str(), "wb")) {
  if (file_ == nullptr) {
    HYDRA_LOG_ERROR("trace: cannot open %s for writing", path.c_str());
    return;
  }
  // Line-buffered with a buffer larger than any event line: complete lines
  // reach the kernel as they are written, so a SIGKILLed process still
  // leaves valid JSONL behind (a mid-compose line stays in the buffer and
  // is dropped whole, never torn).
  std::setvbuf(file_, nullptr, _IOLBF, std::size_t{1} << 20);
  register_flush_target(file_);
}

TraceSink::~TraceSink() {
  if (file_ != nullptr) {
    unregister_flush_target(file_);
    if (std::fclose(file_) != 0 && !write_failed_) {
      std::fprintf(stderr, "hydra trace: close failed, trace file truncated\n");
    }
  }
}

void TraceSink::write_line(const std::string& line) {
  if (file_ == nullptr) return;
  const std::lock_guard lock(mutex_);
  const bool ok = std::fwrite(line.data(), 1, line.size(), file_) == line.size() &&
                  std::fputc('\n', file_) != EOF;
  // Report straight to stderr, NOT through HYDRA_LOG_ERROR: the logger is
  // hooked into this very sink (log_to_trace), so logging here would re-enter
  // write_line and deadlock on the non-recursive mutex_. One-shot so a full
  // disk produces one diagnostic, not one per dropped event.
  if (!ok && !write_failed_) {
    write_failed_ = true;
    std::fprintf(stderr, "hydra trace: write failed, trace is truncated from here\n");
  }
}

namespace {

// `link_key` carries causality: "id" on a send, "cause" on a deliver
// (0 suppresses the key so transports without ids keep the old schema;
// proc 0 likewise keeps single-process traces byte-identical).
std::string message_line(const char* ev, Time t, PartyId from, PartyId to,
                         std::uint32_t tag, std::uint32_t a, std::uint32_t b,
                         std::uint8_t kind, std::size_t bytes,
                         const char* link_key, std::uint64_t link,
                         std::uint32_t proc) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", ev);
  w.kv("t", std::int64_t{t});
  w.kv("from", std::uint64_t{from});
  w.kv("to", std::uint64_t{to});
  w.kv("tag", tag);
  w.kv("a", a);
  w.kv("b", b);
  w.kv("kind", std::uint64_t{kind});
  w.kv("bytes", bytes);
  if (link != 0) w.kv(link_key, link);
  if (proc != 0) w.kv("proc", proc);
  w.end_object();
  return w.take();
}

}  // namespace

void TraceSink::message_send(Time t, PartyId from, PartyId to, std::uint32_t tag,
                             std::uint32_t a, std::uint32_t b, std::uint8_t kind,
                             std::size_t bytes, std::uint64_t id) {
  write_line(
      message_line("send", t, from, to, tag, a, b, kind, bytes, "id", id, proc_));
}

void TraceSink::message_deliver(Time t, PartyId from, PartyId to, std::uint32_t tag,
                                std::uint32_t a, std::uint32_t b, std::uint8_t kind,
                                std::size_t bytes, std::uint64_t cause) {
  write_line(message_line("deliver", t, from, to, tag, a, b, kind, bytes, "cause",
                          cause, proc_));
}

void TraceSink::state(Time t, PartyId party, std::string_view layer,
                      std::string_view what, std::uint32_t a, std::uint32_t b) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "state");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("layer", layer);
  w.kv("what", what);
  w.kv("a", a);
  w.kv("b", b);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::round_start(Time t, PartyId party, std::uint32_t iteration) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "round_start");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("it", iteration);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::round_end(Time t, PartyId party, std::uint32_t iteration) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "round_end");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("it", iteration);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::scalar(Time t, PartyId party, std::string_view name, double value) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "scalar");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("name", name);
  w.kv("value", value);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::violation(Time t, PartyId party, std::string_view monitor,
                          std::uint32_t iteration, std::uint64_t cause,
                          std::string_view detail) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "invariant.violation");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("monitor", monitor);
  w.kv("it", iteration);
  w.kv("cause", cause);
  w.kv("detail", detail);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::fault(Time t, std::string_view what, std::int64_t party,
                      std::int64_t peer, std::uint64_t cause,
                      std::string_view detail) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "fault." + std::string(what));
  w.kv("t", std::int64_t{t});
  if (party >= 0) w.kv("party", party);
  if (peer >= 0) w.kv("peer", peer);
  if (cause != 0) w.kv("cause", cause);
  if (!detail.empty()) w.kv("detail", detail);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::raw_line(const std::string& json_object) {
  write_line(json_object);
}

void TraceSink::input(Time t, PartyId party, bool honest,
                      std::span<const double> v) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "input");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("honest", honest);
  w.key("v");
  w.begin_array();
  for (const double x : v) w.value(x);
  w.end_array();
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::end(bool complete, bool quiescent) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "end");
  w.kv("complete", std::uint64_t{complete ? 1u : 0u});
  w.kv("quiescent", std::uint64_t{quiescent ? 1u : 0u});
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::value(Time t, PartyId party, std::uint32_t iteration,
                      std::span<const double> v, std::uint64_t cause) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "value");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("it", iteration);
  w.key("v");
  w.begin_array();
  for (const double x : v) w.value(x);
  w.end_array();
  if (cause != 0) w.kv("cause", cause);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::rbc(Time t, PartyId party, std::uint32_t tag, std::uint32_t a,
                    std::uint32_t b, std::uint64_t hash, std::uint64_t cause) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "rbc");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("tag", tag);
  w.kv("a", a);
  w.kv("b", b);
  w.kv("h", hash);
  if (cause != 0) w.kv("cause", cause);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::obc(
    Time t, PartyId party, std::uint32_t iteration,
    std::span<const std::pair<std::uint64_t, std::vector<double>>> pairs,
    std::uint64_t cause) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "obc");
  w.kv("t", std::int64_t{t});
  w.kv("party", std::uint64_t{party});
  w.kv("it", iteration);
  // Each pair as [q, x0, x1, ...]: flat arrays keep the line parseable by
  // the same brace-free scanner the merge tool uses for "v".
  w.key("pairs");
  w.begin_array();
  for (const auto& [q, vec] : pairs) {
    w.begin_array();
    w.value(q);
    for (const double x : vec) w.value(x);
    w.end_array();
  }
  w.end_array();
  if (cause != 0) w.kv("cause", cause);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::log(int level, std::string_view msg) {
  JsonWriter w;
  w.begin_object();
  w.kv("ev", "log");
  w.kv("level", std::int64_t{level});
  w.kv("msg", msg);
  if (proc_ != 0) w.kv("proc", proc_);
  w.end_object();
  write_line(w.take());
}

void TraceSink::flush() {
  const std::lock_guard lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

TraceSink* trace() noexcept {
  const Context* ctx = current_context();
  return ctx != nullptr ? ctx->trace_sink : nullptr;
}

void install_log_hook() noexcept { set_log_sink(&log_to_trace); }

void register_flush_target(std::FILE* f) noexcept {
  if (f == nullptr) return;
  for (auto& slot : g_flush_targets) {
    std::FILE* expected = nullptr;
    if (slot.compare_exchange_strong(expected, f, std::memory_order_acq_rel)) {
      return;
    }
  }
}

void unregister_flush_target(std::FILE* f) noexcept {
  if (f == nullptr) return;
  for (auto& slot : g_flush_targets) {
    std::FILE* expected = f;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

void flush_all_sinks() noexcept {
  for (auto& slot : g_flush_targets) {
    if (std::FILE* f = slot.load(std::memory_order_acquire)) std::fflush(f);
  }
}

}  // namespace hydra::obs
