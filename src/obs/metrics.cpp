#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace gv {

MetricLabels::MetricLabels(
    std::initializer_list<std::pair<std::string, std::string>> init) {
  kv.assign(init.begin(), init.end());
  std::sort(kv.begin(), kv.end());
}

MetricLabels MetricLabels::of(std::string key, std::string value) {
  MetricLabels l;
  l.kv.emplace_back(std::move(key), std::move(value));
  return l;
}

std::string MetricLabels::canonical() const {
  std::string out;
  for (const auto& [k, v] : kv) {
    if (!out.empty()) out.push_back(',');
    out += k;
    out.push_back('=');
    out += v;
  }
  return out;
}

// --- Histogram. --------------------------------------------------------------

int Histogram::bucket_index(double v) {
  if (!(v > kMinValue)) return 0;  // zeros, negatives, NaN -> underflow
  // log2(v / kMinValue) * 4, floored: geometric buckets with ratio 2^(1/4).
  const int idx =
      1 + static_cast<int>(std::floor(std::log2(v / kMinValue) *
                                      kBucketsPerDoubling));
  return std::clamp(idx, 1, kNumBuckets);
}

double Histogram::bucket_upper(int i) {
  if (i <= 0) return kMinValue;
  return kMinValue * std::exp2(static_cast<double>(i) / kBucketsPerDoubling);
}

void Histogram::record(double v) {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
  if (!has_min_.load(std::memory_order_relaxed)) {
    // First writer initializes min/max; a racing second writer falls
    // through to the CAS loops below, which handle it correctly.
    bool expected = false;
    if (has_min_.compare_exchange_strong(expected, true)) {
      min_.store(v, std::memory_order_relaxed);
      max_.store(v, std::memory_order_relaxed);
      return;
    }
  }
  double m = min_.load(std::memory_order_relaxed);
  while (v < m && !min_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
  m = max_.load(std::memory_order_relaxed);
  while (v > m && !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (has_min_.load(std::memory_order_relaxed)) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  for (int i = 0; i <= kNumBuckets; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c != 0) s.buckets.emplace_back(bucket_upper(i), c);
  }
  return s;
}

double Histogram::Snapshot::percentile(double p) const {
  if (count == 0 || buckets.empty()) return 0.0;
  const double rank = p * static_cast<double>(count - 1) + 0.5;
  std::uint64_t seen = 0;
  for (const auto& [upper, c] : buckets) {
    seen += c;
    if (static_cast<double>(seen) >= rank) {
      if (upper <= kMinValue) return 0.0;  // underflow bucket
      // Geometric mean of the bucket bounds: the estimator with bounded
      // relative error for log-spaced buckets.
      const double lower = upper / std::exp2(1.0 / kBucketsPerDoubling);
      return std::clamp(std::sqrt(lower * upper), min, max);
    }
  }
  return max;
}

void Histogram::reset() {
  for (int i = 0; i <= kNumBuckets; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  has_min_.store(false, std::memory_order_relaxed);
}

// --- Registry. ---------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const MetricLabels& labels) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  const Key key{name, labels.canonical()};
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  label_sets_.emplace(key.labels, labels);
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const MetricLabels& labels) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  const Key key{name, labels.canonical()};
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  label_sets_.emplace(key.labels, labels);
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const MetricLabels& labels) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  const Key key{name, labels.canonical()};
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<Histogram>();
  label_sets_.emplace(key.labels, labels);
  return *slot;
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  for (auto& [k, c] : counters_) c->reset();
  for (auto& [k, g] : gauges_) g->reset();
  for (auto& [k, h] : histograms_) h->reset();
}

namespace {

void append_labels(std::string& out,
                   const std::map<std::string, MetricLabels>& sets,
                   const std::string& canonical) {
  out += "\"labels\": {";
  const auto it = sets.find(canonical);
  if (it != sets.end()) {
    bool first = true;
    for (const auto& [k, v] : it->second.kv) {
      if (!first) out += ", ";
      first = false;
      append_json_string(out, k);
      out += ": ";
      append_json_string(out, v);
    }
  }
  out += "}";
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  std::string out = "{\"counters\": [";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": ";
    append_json_string(out, key.name);
    out += ", ";
    append_labels(out, label_sets_, key.labels);
    out += ", \"value\": " + std::to_string(c->value()) + "}";
  }
  out += "], \"gauges\": [";
  first = true;
  for (const auto& [key, g] : gauges_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": ";
    append_json_string(out, key.name);
    out += ", ";
    append_labels(out, label_sets_, key.labels);
    out += ", \"value\": ";
    append_json_number(out, g->value());
    out += "}";
  }
  out += "], \"histograms\": [";
  first = true;
  for (const auto& [key, h] : histograms_) {
    if (!first) out += ", ";
    first = false;
    const auto s = h->snapshot();
    out += "{\"name\": ";
    append_json_string(out, key.name);
    out += ", ";
    append_labels(out, label_sets_, key.labels);
    out += ", \"count\": " + std::to_string(s.count);
    out += ", \"sum\": ";
    append_json_number(out, s.sum);
    out += ", \"min\": ";
    append_json_number(out, s.min);
    out += ", \"max\": ";
    append_json_number(out, s.max);
    out += ", \"mean\": ";
    append_json_number(out, s.mean());
    out += ", \"p50\": ";
    append_json_number(out, s.percentile(0.50));
    out += ", \"p95\": ";
    append_json_number(out, s.percentile(0.95));
    out += ", \"p99\": ";
    append_json_number(out, s.percentile(0.99));
    out += "}";
  }
  out += "]}";
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  GV_CHECK(f.good(), "cannot open metrics output file: " + path);
  f << to_json() << "\n";
  GV_CHECK(f.good(), "failed writing metrics output file: " + path);
}

}  // namespace gv
