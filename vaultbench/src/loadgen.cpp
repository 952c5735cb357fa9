#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>
#include <thread>

#include <time.h>

#include "bench.hpp"
#include "obs/query_trace.hpp"

namespace vb {

NodeSampler::NodeSampler(std::uint32_t num_nodes, double zipf_s,
                         std::uint64_t seed)
    : n_(num_nodes) {
  if (zipf_s <= 0.0) return;
  perm_.resize(n_);
  std::iota(perm_.begin(), perm_.end(), 0u);
  SeededRng rng(seed);
  for (std::uint32_t i = n_; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.below(i)]);
  }
  cdf_.resize(n_);
  double acc = 0.0;
  for (std::uint32_t r = 0; r < n_; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cdf_[r] = acc;
  }
  for (auto& c : cdf_) c /= acc;
}

std::uint32_t NodeSampler::sample(SeededRng& rng) const {
  if (cdf_.empty()) return rng.below(n_);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(), n_ - 1));
  return perm_[rank];
}

std::vector<Arrival> poisson_schedule(const NodeSampler& nodes, double rate_rps,
                                      double seconds, SeededRng& rng) {
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_rps * seconds * 1.05) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_rps;
    if (t >= seconds) break;
    out.push_back({static_cast<std::int64_t>(t * 1e9), nodes.sample(rng)});
  }
  return out;
}

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double wait_until_ns(std::int64_t t_ns) {
  if (t_ns <= now_ns()) return 0.0;
  const double cpu0 = thread_cpu_s();
  for (;;) {
    const std::int64_t left = t_ns - now_ns();
    if (left <= 0) return thread_cpu_s() - cpu0;
    if (left > 250'000) {
      // Sleep most of the gap; the wake-up overshoot is absorbed by the
      // spin below instead of showing up as sender lag.
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 150'000));
    } else {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    }
  }
}

std::unique_ptr<PhaseRun> run_open_loop(std::vector<Arrival> plan,
                                        const SubmitFn& submit,
                                        std::int64_t start_ns,
                                        double drain_timeout_s) {
  auto run = std::make_unique<PhaseRun>();
  run->plan = std::move(plan);
  const std::size_t n = run->plan.size();
  run->rec = std::make_unique<RequestRecord[]>(n);
  std::atomic<std::size_t>* done = &run->done;
  const double cpu0 = process_cpu_s();
  // The sender's waits (the spin part burns CPU) are the harness's, not
  // the program's: they are taken out of cpu_s.
  double wait_cpu_s = 0.0;
  run->start_ns = start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    RequestRecord* r = &run->rec[i];
    r->sched_ns = run->start_ns + run->plan[i].at_ns;
    wait_cpu_s += wait_until_ns(r->sched_ns);
    r->send_ns = now_ns();
    try {
      gv::SubmitToken tok = submit(run->plan[i].node);
      r->ret_ns = now_ns();
      r->inline_hit = tok.ready();
      // The callback runs inline for a ready token, else on the resolving
      // worker inside its batch's flush; it captures two pointers, so it
      // never allocates.
      tok.then([r, done](std::uint32_t label, std::exception_ptr err) {
        r->label = label;
        r->failed = err != nullptr;
        r->batch_qid = gv::current_query_id();
        r->done_ns.store(now_ns(), std::memory_order_release);
        done->fetch_add(1, std::memory_order_acq_rel);
      });
    } catch (const std::exception&) {
      r->ret_ns = now_ns();
      r->failed = true;
      r->done_ns.store(r->ret_ns, std::memory_order_release);
      done->fetch_add(1, std::memory_order_acq_rel);
    }
  }
  run->end_send_ns = now_ns();
  const std::int64_t deadline =
      run->end_send_ns + static_cast<std::int64_t>(drain_timeout_s * 1e9);
  while (done->load(std::memory_order_acquire) < n && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  run->cpu_s = process_cpu_s() - cpu0 - wait_cpu_s;
  return run;
}

}  // namespace vb
