// VaultBench shared declarations: run configuration, the metric report,
// the correctness tally and small statistics helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vb {

/// Monotonic nanoseconds on the TraceRecorder's clock, so benchmark
/// timestamps and program spans share one time base.
std::int64_t now_ns();

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Process user+system CPU seconds (getrusage).
double process_cpu_s();
/// Process peak resident set (ru_maxrss) in MB.
double peak_rss_mb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Everything the command line fixes for one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Workload constants (vaultbench/workloads.json, passed by run.py).
  double rate_rps = 0.0;             // nominal open-loop read rate
  double limit_ms = 0.0;             // p99 limit of the max-rate ladder
  std::vector<double> ladder_rps;    // fixed max-rate ladder, ascending
  int epochs = 50;                   // backbone and rectifier epochs
  double scale = 1.0;                // dataset scale (1.0 = full size)
  std::string out_dir = ".";         // trace artifacts
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics with units; renders the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// The one-line result object: correct, attempted, failed, metrics.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Operations attempted, failed (error or shutdown) and answered wrongly,
/// over every operation kind of the run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
  }
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed + wrong) /
                                static_cast<double>(attempted);
  }
};

/// Human-readable progress and breakdown lines (stdout, before the result).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace vb
