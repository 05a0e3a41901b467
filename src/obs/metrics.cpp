#include "obs/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace hydra::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  HYDRA_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                   "histogram bucket bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  const std::lock_guard lock(mutex_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += 1;
  sum_ += x;
}

Histogram::Snapshot Histogram::snapshot() const {
  const std::lock_guard lock(mutex_);
  return Snapshot{bounds_, counts_, count_, sum_, min_, max_};
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, std::span<const double> bounds) {
  const std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(std::vector<double>(
                                             bounds.begin(), bounds.end())))
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  const std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string Registry::to_json() const {
  const std::lock_guard lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c->value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g->value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    const auto snap = h->snapshot();
    w.key(name);
    w.begin_object();
    w.key("bounds");
    w.begin_array();
    for (const double b : snap.bounds) w.value(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (const auto c : snap.counts) w.value(c);
    w.end_array();
    w.kv("count", snap.count);
    w.kv("sum", snap.sum);
    w.kv("min", snap.min);
    w.kv("max", snap.max);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace hydra::obs
