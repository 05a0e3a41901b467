#include "obs/prof.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace hydra::obs {

double log2_bucket_percentile(std::span<const std::uint64_t> buckets, double p,
                              int shift) {
  std::uint64_t total = 0;
  for (const auto b : buckets) total += b;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                              static_cast<double>(total))));
  std::size_t i = 0;
  for (std::uint64_t seen = buckets[0]; seen < rank;) seen += buckets[++i];
  return std::exp2(static_cast<double>(i) + shift - 0.5);
}

std::vector<Profiler::Snapshot> Profiler::snapshot() const {
  const std::lock_guard lock(mutex_);
  std::vector<Snapshot> out;
  out.reserve(phases_.size());
  for (const auto& [name, stats] : phases_) {
    Snapshot s;
    s.name = name;
    s.count = stats->count.load(std::memory_order_relaxed);
    s.total_ns = stats->total_ns.load(std::memory_order_relaxed);
    s.self_ns = stats->self_ns.load(std::memory_order_relaxed);
    const auto min = stats->min_ns.load(std::memory_order_relaxed);
    s.min_ns = min == UINT64_MAX ? 0 : min;
    s.max_ns = stats->max_ns.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.buckets[i] = stats->buckets[i].load(std::memory_order_relaxed);
    }
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration: already sorted by name
}

void Profiler::reset() {
  const std::lock_guard lock(mutex_);
  phases_.clear();
}

std::string Profiler::to_json() const {
  const auto phases = snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("phases");
  w.begin_object();
  for (const auto& p : phases) {
    w.key(p.name);
    w.begin_object();
    w.kv("count", p.count);
    w.kv("total_ns", p.total_ns);
    w.kv("self_ns", p.self_ns);
    w.kv("min_ns", p.min_ns);
    w.kv("max_ns", p.max_ns);
    // Trailing zero buckets carry no information; trimming keeps the
    // document compact (bucket i counts samples in [2^(i-1), 2^i) ns).
    std::size_t last = kBuckets;
    while (last > 0 && p.buckets[last - 1] == 0) --last;
    w.key("buckets");
    w.begin_array();
    for (std::size_t i = 0; i < last; ++i) w.value(p.buckets[i]);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace hydra::obs
