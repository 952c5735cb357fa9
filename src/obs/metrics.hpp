// VaultScope MetricsRegistry: named counters, gauges, and log-bucketed
// histograms with labels.
//
// The fleet used to be observable only through one flat ServerMetrics
// struct; per-query ColdSubsetStats and per-channel byte audits were
// computed and thrown away, and the latency percentiles were produced by
// copying + sorting an 8192-double reservoir under the contended metrics
// mutex on every stats() poll.  The registry fixes both halves:
//
//   * instruments are NAMED and LABELED (`tenant`, `shard`, `channel_kind`,
//     `layer`, `platform`...), so the previously-discarded telemetry has a
//     place to accumulate and a JSON exporter to leave through;
//   * the Histogram is log-bucketed (geometric buckets, ~9% relative width)
//     with lock-free atomic recording and O(buckets) percentile
//     estimation — a snapshot never sorts anything and never blocks a
//     recording thread.
//
// Hot-path discipline: resolve an instrument ONCE (counter()/gauge()/
// histogram() take the registry mutex) and keep the reference; recording
// through the reference is a handful of relaxed/CAS atomics.  References
// stay valid for the registry's lifetime (node-based storage).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/thread_safety.hpp"

namespace gv {

/// Sorted (key, value) label set; canonicalized so {a=1,b=2} and {b=2,a=1}
/// resolve to the same instrument.
struct MetricLabels {
  std::vector<std::pair<std::string, std::string>> kv;

  MetricLabels() = default;
  MetricLabels(
      std::initializer_list<std::pair<std::string, std::string>> init);
  static MetricLabels of(std::string key, std::string value);

  /// Canonical "k=v,k2=v2" form used as the instrument map key.
  std::string canonical() const;
  bool empty() const { return kv.empty(); }
};

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram: values land in geometric buckets with ratio
/// 2^(1/4) (~19% width, <=9.1% error to the bucket's geometric mean), which
/// spans [1e-9, ~5e12] in a fixed 300-slot array — nanoseconds to hours of
/// latency without configuration.  Values <= kMinValue (zeros: cache hits)
/// land in the underflow bucket and report as 0.
class Histogram {
 public:
  static constexpr double kMinValue = 1e-9;
  static constexpr int kBucketsPerDoubling = 4;
  static constexpr int kNumBuckets = 300;  // + underflow slot 0

  void record(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Per-bucket (upper_bound, count), underflow first; only populated
    /// buckets are included.
    std::vector<std::pair<double, std::uint64_t>> buckets;

    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
    /// O(buckets) percentile estimate: the geometric mean of the bucket the
    /// p-quantile falls in, clamped to the observed [min, max].
    double percentile(double p) const;
  };
  Snapshot snapshot() const;
  void reset();

  /// The bucket index `v` lands in (0 = underflow); exposed for tests.
  static int bucket_index(double v);
  /// Inclusive upper bound of bucket `i`.
  static double bucket_upper(int i);

 private:
  std::atomic<std::uint64_t> counts_[kNumBuckets + 1]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_min_{false};
};

class MetricsRegistry {
 public:
  /// Process-wide default registry (DriftTracker gauges, EPC headroom...).
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create.  Returned references live as long as the registry.
  Counter& counter(const std::string& name, const MetricLabels& labels = {});
  Gauge& gauge(const std::string& name, const MetricLabels& labels = {});
  Histogram& histogram(const std::string& name, const MetricLabels& labels = {});

  /// Number of registered instruments (all kinds).
  std::size_t size() const;
  /// Zero every instrument (instruments stay registered; references stay
  /// valid).
  void reset();

  /// One JSON object: {"counters": [{"name","labels","value"}...],
  /// "gauges": [...], "histograms": [{"name","labels","count","sum","min",
  /// "max","mean","p50","p95","p99"}...]}.  Names and label values may hold
  /// any bytes (an `engine` label is a caller's tenant string); the shared
  /// codec (common/json.hpp) escapes them.  Embeddable in bench_common's
  /// --json artifacts and the VaultScope snapshot file.
  std::string to_json() const;
  void write_json(const std::string& path) const;

 private:
  struct Key {
    std::string name;
    std::string labels;
    bool operator<(const Key& o) const {
      return name != o.name ? name < o.name : labels < o.labels;
    }
  };
  template <typename T>
  using InstrumentMap = std::map<Key, std::unique_ptr<T>>;

  mutable Mutex mu_ GV_LOCK_RANK(gv::lockrank::kTelemetry){
      gv::lockrank::kTelemetry};
  InstrumentMap<Counter> counters_ GV_GUARDED_BY(mu_);
  InstrumentMap<Gauge> gauges_ GV_GUARDED_BY(mu_);
  InstrumentMap<Histogram> histograms_ GV_GUARDED_BY(mu_);
  /// Original label sets per key (for the exporter).
  std::map<std::string, MetricLabels> label_sets_ GV_GUARDED_BY(mu_);
};

}  // namespace gv
