// Lookups over a TraceRecorder snapshot: spans by name, the synchronous
// children of a span and folded self-times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace vb {

class SpanView {
 public:
  explicit SpanView(std::vector<gv::TraceEvent> events);

  const std::vector<gv::TraceEvent>& events() const { return ev_; }

  /// Spans called `name`, of `category` unless it is null (an ecall's
  /// category is its enclave's name).
  std::vector<const gv::TraceEvent*> find(const char* category,
                                          const char* name) const;
  /// Wall durations (ms) of find(category, name); with `key`, only spans
  /// whose arg `key` equals `value`.
  std::vector<double> durations_ms(const char* category, const char* name,
                                   const char* key = nullptr,
                                   double value = 0.0) const;
  /// Synchronous spans called `name` on `parent`'s thread inside it.
  std::vector<const gv::TraceEvent*> children(const gv::TraceEvent& parent,
                                              const char* name) const;

  /// Value of arg `key`, or `dflt` when absent.
  static double arg(const gv::TraceEvent& ev, const char* key, double dflt);
  static std::int64_t end_ns(const gv::TraceEvent& ev) {
    return static_cast<std::int64_t>(ev.start_ns + ev.dur_ns);
  }

 private:
  std::vector<gv::TraceEvent> ev_;
  std::map<int, std::vector<std::size_t>> by_tid_;  // sorted by start
};

/// Self wall nanoseconds per frame ("category/name"), summed over every
/// stack gv::folded_profile() folds the events into.
std::map<std::string, double> folded_self_ns(
    const std::vector<gv::TraceEvent>& events);

}  // namespace vb
