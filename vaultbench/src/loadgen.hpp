// Open-loop load generation: seeded arrival schedules and a single-thread
// sender that keeps thousands of requests in flight through
// SubmitToken::then.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "bench.hpp"
#include "serve/submit_token.hpp"

namespace vb {

/// Deterministic uniform doubles in [0, 1) from a 64-bit Mersenne twister
/// (the standard distributions are implementation-defined).
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : gen_(seed) {}
  double uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(uniform() * n) % n;
  }

 private:
  std::mt19937_64 gen_;
};

/// Node popularity: Zipf(s) over a seeded permutation of node ids, or
/// uniform when s == 0.
class NodeSampler {
 public:
  NodeSampler(std::uint32_t num_nodes, double zipf_s, std::uint64_t seed);
  std::uint32_t sample(SeededRng& rng) const;

 private:
  std::uint32_t n_;
  std::vector<double> cdf_;          // empty = uniform
  std::vector<std::uint32_t> perm_;  // rank -> node id
};

/// One scheduled read: offset from the phase start and the node asked for.
struct Arrival {
  std::int64_t at_ns = 0;
  std::uint32_t node = 0;
};

/// Poisson arrivals at `rate_rps` for `seconds`.
std::vector<Arrival> poisson_schedule(const NodeSampler& nodes, double rate_rps,
                                      double seconds, SeededRng& rng);

/// What the sender and the completion callback record per request.
struct RequestRecord {
  std::int64_t sched_ns = 0;   // scheduled send time (absolute)
  std::int64_t send_ns = 0;    // actual send time
  std::int64_t ret_ns = 0;     // submit() returned
  std::atomic<std::int64_t> done_ns{0};  // token resolved (0 = pending)
  /// Query id in scope when the callback ran: for a miss, the first entry
  /// of the batch that resolved it (the id its batch_flush span and
  /// queue_wait slice carry); 0 for an inline hit.
  std::uint64_t batch_qid = 0;
  std::uint32_t label = 0;
  bool failed = false;
  bool inline_hit = false;     // token was ready when submit returned
};

/// One open-loop phase: the plan, its start, and the per-request records.
struct PhaseRun {
  std::vector<Arrival> plan;
  std::unique_ptr<RequestRecord[]> rec;
  std::int64_t start_ns = 0;
  std::int64_t end_send_ns = 0;   // last send
  /// Process CPU from start to drained, minus the sender's own waiting.
  double cpu_s = 0.0;
  std::atomic<std::size_t> done{0};

  std::size_t size() const { return plan.size(); }
  bool drained() const { return done.load() == plan.size(); }
};

using SubmitFn = std::function<gv::SubmitToken(std::uint32_t)>;

/// Send `plan` open-loop from the calling thread, request i at
/// `start_ns + plan[i].at_ns` however late earlier ones ran, then wait up
/// to `drain_timeout_s` for every token to resolve.
std::unique_ptr<PhaseRun> run_open_loop(std::vector<Arrival> plan,
                                        const SubmitFn& submit,
                                        std::int64_t start_ns,
                                        double drain_timeout_s);

/// Sleep, then spin, until the absolute time `t_ns` (now_ns clock).
/// Returns the calling thread's CPU seconds spent waiting.
double wait_until_ns(std::int64_t t_ns);

}  // namespace vb
