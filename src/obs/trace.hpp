// VaultScope TraceRecorder: fleet-wide dual-clock span tracing.
//
// Every interesting interval in the serving stack — queue wait, batch
// flush, per-shard ecall, per-layer halo exchange, cold-path frontier
// recursion, migration fences, promotion phases — is wrapped in a TraceSpan
// that records TWO clocks:
//
//   wall nanoseconds     what the host actually spent (steady_clock);
//   modeled SGX seconds  what the simulated hardware would have spent,
//                        taken from the CostMeter delta the instrumented
//                        code already computes (ecall transitions,
//                        MEE-encrypted copies, EPC paging) — the clock the
//                        paper's Fig. 6 breakdown is denominated in.
//
// Spans land in per-thread ring buffers (one uncontended mutex each, so a
// concurrent exporter stays TSan-clean without slowing the owner thread)
// and export to Chrome/Perfetto trace-event JSON: load trace_serve.json in
// https://ui.perfetto.dev or chrome://tracing and a single cold query's
// cross-shard cascade is visually inspectable, with both clocks attached to
// every slice.
//
// Cost discipline: when disabled (the default), constructing a TraceSpan is
// ONE relaxed atomic load and destruction is one branch — the serving hot
// path pays nothing measurable.  When enabled, emission happens OUTSIDE any
// cost-model stopwatch window wherever possible, so tracing observes the
// modeled clocks instead of inflating them; bench/obs_overhead.cpp pins the
// residual wall cost below 3% of modeled throughput.
//
// Runtime switch: TraceRecorder::instance().set_enabled(bool), seeded from
// GNNVAULT_TRACE=1 at first use.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/query_trace.hpp"
#include "common/annotations.hpp"

namespace gv {

/// One completed span.  Names and arg keys must be pointers to storage that
/// outlives every export (string literals, or runtime-built names interned
/// via TraceRecorder::intern — e.g. an enclave's name, whose owner may be
/// destroyed before the trace is written) — the ring stores the pointer,
/// not a copy, to keep emission allocation-free.
struct TraceEvent {
  // Must leave headroom past a span's explicit args for the two slots the
  // pipeline appends implicitly: the QueryScope-attached "query_id" (span
  // destructor) and the per-ring "tid" (snapshot()).  If a full event drops
  // the tid slot, the exporter collapses that event onto tid 0 and
  // concurrent threads' slices appear to partially overlap, which the
  // nesting validator rejects.
  static constexpr int kMaxArgs = 6;
  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };

  const char* category = "";
  const char* name = "";
  std::uint64_t start_ns = 0;  // since the recorder's epoch
  std::uint64_t dur_ns = 0;
  /// Modeled SGX seconds attributed to this span (0 when not applicable).
  double modeled_s = 0.0;
  /// Exported as a Chrome ASYNC event pair (ph "b"/"e") instead of a
  /// complete slice.  For intervals that legitimately overlap the thread's
  /// synchronous slice stack — e.g. a queue wait measured from an enqueue
  /// timestamp taken on another thread — which would otherwise violate the
  /// well-nested invariant the slice validator enforces.
  bool async = false;
  Arg args[kMaxArgs];
  int num_args = 0;

  void add_arg(const char* key, double value) {
    if (num_args < kMaxArgs) args[num_args++] = {key, value};
  }
};

class TraceRecorder {
 public:
  /// Events retained per thread; older events are overwritten (dropped()
  /// counts the overwrites) so a long-running server bounds its memory.
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

  static TraceRecorder& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Emit a complete span with caller-supplied timestamps (e.g. a queue
  /// wait measured from an enqueue timestamp taken before the span type
  /// existed on that thread).  No-op when disabled.
  void emit(const char* category, const char* name,
            std::chrono::steady_clock::time_point start,
            std::chrono::steady_clock::time_point end, double modeled_s = 0.0,
            std::initializer_list<TraceEvent::Arg> args = {});

  /// Like emit(), but exported as an async event pair (see
  /// TraceEvent::async): the interval may overlap the emitting thread's
  /// synchronous slices without breaking their nesting.
  void emit_async(const char* category, const char* name,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end,
                  double modeled_s = 0.0,
                  std::initializer_list<TraceEvent::Arg> args = {});

  /// Nanoseconds since the recorder's epoch (process-stable steady clock).
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
  std::uint64_t to_ns(std::chrono::steady_clock::time_point tp) const {
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_).count();
    return d > 0 ? static_cast<std::uint64_t>(d) : 0;
  }

  /// Append a finished event to the calling thread's ring (enabled() is NOT
  /// rechecked: the caller sampled it at span start).
  void append(const TraceEvent& ev);

  /// Copy out every thread's retained events, sorted by start time.
  std::vector<TraceEvent> snapshot() const;
  /// Events overwritten by ring wrap-around since the last clear().
  std::uint64_t dropped() const { return dropped_.load(); }
  /// Discard all retained events (drop counter included).
  void clear();

  /// Number of threads that have emitted at least one span.
  std::size_t num_threads() const;

  /// Intern a dynamic string (e.g. an enclave name used as a span category)
  /// into recorder-lifetime storage and return a stable pointer.  Events
  /// store raw const char*, so any name built at runtime MUST be interned —
  /// pointing at a member string dangles once its owner is destroyed, and
  /// exports routinely outlive the servers that emitted the spans.  Call
  /// once per name (construction time), not per span: it takes a lock.
  const char* intern(const std::string& s);

  /// Chrome trace-event JSON ({"traceEvents":[...]}), loadable by Perfetto
  /// and chrome://tracing.  Slices carry ts/dur in microseconds plus args
  /// {wall_ns, modeled_sgx_s, ...}.
  std::string to_chrome_json() const;
  void write_chrome_json(const std::string& path) const;

 private:
  struct ThreadBuffer {
    mutable std::mutex mu GV_LOCK_RANK(gv::lockrank::kTelemetry);
    std::vector<TraceEvent> ring;  // grows to kRingCapacity, then wraps
    std::uint64_t appended = 0;    // lifetime count; write head = % capacity
    std::uint32_t tid = 0;
  };

  TraceRecorder();
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex registry_mu_ GV_LOCK_RANK(gv::lockrank::kTelemetry);
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> dropped_{0};
  /// Interned names: node-based so c_str() pointers stay stable, and never
  /// cleared — clear() drops events, but an interned pointer may still be
  /// held by a live emitter (an Enclave's cached category).
  std::set<std::string> interned_;
};

/// RAII span emitter.  Construction samples the enabled flag once; every
/// other member is a no-op on a disabled span.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name)
      : active_(TraceRecorder::instance().enabled()) {
    if (active_) {
      ev_.category = category;
      ev_.name = name;
      start_ = std::chrono::steady_clock::now();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a numeric attribute (shard index, layer, bytes, rows...).
  void arg(const char* key, double value) {
    if (active_) ev_.add_arg(key, value);
  }
  /// Attach the span's modeled-SGX-seconds delta (the second clock).
  void modeled_seconds(double s) {
    if (active_) ev_.modeled_s = s;
  }
  /// Suppress emission (e.g. a probe that turned out to be a no-op).
  void cancel() { active_ = false; }
  bool active() const { return active_; }

  ~TraceSpan() {
    if (!active_) return;
    // QueryLens: any span closing under a query scope is part of that
    // query's causal chain — attach the id unless the caller already did.
    if (const std::uint64_t qid = current_query_id(); qid != 0) {
      bool tagged = false;
      for (int i = 0; i < ev_.num_args; ++i) {
        if (std::strcmp(ev_.args[i].key, "query_id") == 0) tagged = true;
      }
      if (!tagged) ev_.add_arg("query_id", static_cast<double>(qid));
    }
    auto& rec = TraceRecorder::instance();
    ev_.start_ns = rec.to_ns(start_);
    const std::uint64_t end_ns = rec.now_ns();
    ev_.dur_ns = end_ns > ev_.start_ns ? end_ns - ev_.start_ns : 0;
    rec.append(ev_);
  }

 private:
  bool active_;
  std::chrono::steady_clock::time_point start_;
  TraceEvent ev_{};
};

/// Validate that `json` parses (strict JSON, common/json.hpp) as a Chrome
/// trace document and that, per thread, every pair of slices either nests
/// or is disjoint (well-nested timestamps — the invariant RAII emission
/// guarantees and exporters rely on).  Returns true on success; on failure
/// fills `error` (when non-null) with a human-readable reason.
bool validate_trace_json(const std::string& json, std::string* error = nullptr);

}  // namespace gv
