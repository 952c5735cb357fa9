// VaultBench entry point.
//
//   vaultbench --workload <cora-hot|pubmed-miss> --seed <n> --seconds <s>
//              --trace <0|1> --rate <req/s> --limit-ms <ms>
//              --ladder <r1,r2,...> --epochs <n> [--scale <f>]
//              [--out-dir <dir>] [--source-id <id>]
//
// Normally launched by vaultbench/run.py, which builds this binary from the
// checkout and fills the workload constants from vaultbench/workloads.json.
// The last stdout line is the result object; every line before it is a
// human-readable breakdown.  Exit code 0 only when the run completed.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace vb {

std::int64_t now_ns() {
  return static_cast<std::int64_t>(gv::TraceRecorder::instance().now_ns());
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
    out << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": " << num
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace vb

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "vaultbench: %s (see the header of vaultbench/src/main.cpp)\n",
               why);
  std::exit(2);
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  return out;
}

vb::RunConfig parse(int argc, char** argv, std::string* source_id) {
  vb::RunConfig c;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") c.workload = v;
    else if (a == "--seed") c.seed = std::stoull(v);
    else if (a == "--seconds") c.seconds = std::stod(v);
    else if (a == "--trace") c.trace = v == "1";
    else if (a == "--rate") c.rate_rps = std::stod(v);
    else if (a == "--limit-ms") c.limit_ms = std::stod(v);
    else if (a == "--ladder") c.ladder_rps = parse_list(v);
    else if (a == "--epochs") c.epochs = std::stoi(v);
    else if (a == "--scale") c.scale = std::stod(v);
    else if (a == "--out-dir") c.out_dir = v;
    else if (a == "--source-id") *source_id = v;
    else usage(("unknown flag " + a).c_str());
  }
  if (c.workload.empty()) usage("--workload is required");
  if (c.seconds <= 0 || c.rate_rps <= 0 || c.limit_ms <= 0 || c.ladder_rps.empty() ||
      c.ladder_rps.front() <= 0 ||
      !std::is_sorted(c.ladder_rps.begin(), c.ladder_rps.end()) || c.epochs < 1 ||
      c.scale <= 0 || c.scale > 1) {
    usage("--seconds, --rate, --limit-ms, --epochs and --scale must be positive "
          "(scale at most 1) and --ladder ascending and positive");
  }
  return c;
}

/// The run's environment, printed so results can be compared.
void record_environment(const std::string& source_id) {
  vb::note("build %s, source %s", VAULTBENCH_BUILD_TYPE, source_id.c_str());
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  vb::note("nproc %u, omp_get_max_threads %d", std::thread::hardware_concurrency(),
           omp_threads);
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_", 4) == 0 || std::strncmp(*e, "GNNVAULT_", 9) == 0) {
      vb::note("environment: %s", *e);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "vaultbench: refusing to report from a non-optimized build\n");
  return 3;
#endif
  std::string source_id = "unknown";
  const vb::RunConfig cfg = parse(argc, argv, &source_id);
  if (std::thread::hardware_concurrency() < 2) {
    std::fprintf(stderr, "vaultbench: needs at least 2 hardware threads\n");
    return 3;
  }
  record_environment(source_id);
  vb::note("workload %s, seed %llu, %.1f s, trace %d", cfg.workload.c_str(),
           static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
  vb::Report report;
  vb::Tally tally;
  try {
    vb::run_workload(cfg, report, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vaultbench: %s\n", e.what());
    return 1;
  }
  vb::note("operations: %llu attempted, %llu failed, %llu wrong, error_rate %.6g",
           static_cast<unsigned long long>(tally.attempted),
           static_cast<unsigned long long>(tally.failed),
           static_cast<unsigned long long>(tally.wrong), tally.error_rate());
  for (const auto& m : report.metrics()) {
    vb::note("metric %-36s %18.9g %s", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", report.json(tally.failed == 0 && tally.wrong == 0,
                                   std::max<std::uint64_t>(1, tally.attempted),
                                   tally.failed + tally.wrong)
                          .c_str());
  return 0;
}
