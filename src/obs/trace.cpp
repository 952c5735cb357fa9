#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace gv {

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {
  enabled_.store(env_int("GNNVAULT_TRACE", 0) != 0, std::memory_order_relaxed);
}

TraceRecorder& TraceRecorder::instance() {
  // Leaked on purpose: worker threads may emit spans during static
  // destruction of other objects; the recorder must outlive them all.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(registry_mu_);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void TraceRecorder::append(const TraceEvent& ev) {
  ThreadBuffer& buf = local_buffer();
  // The buffer's mutex is only ever contended by a snapshotting exporter;
  // for the owning thread this is an uncontended lock (tens of ns).
  std::lock_guard<std::mutex> lock(buf.mu);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  if (buf.ring.size() < kRingCapacity) {
    buf.ring.push_back(ev);
  } else {
    buf.ring[buf.appended % kRingCapacity] = ev;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ++buf.appended;
}

void TraceRecorder::emit(const char* category, const char* name,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end,
                         double modeled_s,
                         std::initializer_list<TraceEvent::Arg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.start_ns = to_ns(start);
  const std::uint64_t end_ns = to_ns(end);
  ev.dur_ns = end_ns > ev.start_ns ? end_ns - ev.start_ns : 0;
  ev.modeled_s = modeled_s;
  for (const auto& a : args) ev.add_arg(a.key, a.value);
  append(ev);
}

void TraceRecorder::emit_async(const char* category, const char* name,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point end,
                               double modeled_s,
                               std::initializer_list<TraceEvent::Arg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.async = true;
  ev.start_ns = to_ns(start);
  const std::uint64_t end_ns = to_ns(end);
  ev.dur_ns = end_ns > ev.start_ns ? end_ns - ev.start_ns : 0;
  ev.modeled_s = modeled_s;
  for (const auto& a : args) ev.add_arg(a.key, a.value);
  append(ev);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    // Oldest-first: after a wrap the head of the ring is the write cursor.
    const std::size_t n = buf->ring.size();
    const std::size_t head = buf->appended >= kRingCapacity
                                 ? buf->appended % kRingCapacity
                                 : 0;
    for (std::size_t i = 0; i < n; ++i) {
      TraceEvent ev = buf->ring[(head + i) % n];
      // Thread id rides in a spare arg slot so snapshot() consumers (and
      // the JSON exporter) know which ring each event came from.
      ev.add_arg("tid", static_cast<double>(buf->tid));
      out.push_back(ev);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                     : a.dur_ns > b.dur_ns;
                   });
  return out;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> b(buf->mu);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    buf->ring.clear();
    buf->appended = 0;
  }
  dropped_.store(0);
}

std::size_t TraceRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return buffers_.size();
}

const char* TraceRecorder::intern(const std::string& s) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return interned_.insert(s).first->c_str();
}

std::string TraceRecorder::to_chrome_json() const {
  const auto events = snapshot();
  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  out +=
      "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"gnnvault\"}}";
  std::uint64_t async_id = 0;
  for (const auto& ev : events) {
    // The exporter filed the source thread id in the last arg slot.
    double tid = 0.0;
    int nargs = ev.num_args;
    if (nargs > 0 && ev.args[nargs - 1].key != nullptr &&
        std::string_view(ev.args[nargs - 1].key) == "tid") {
      tid = ev.args[nargs - 1].value;
      --nargs;
    }
    char head[192];
    if (ev.async) {
      // Async begin: intervals like queue waits overlap the thread's slice
      // stack, so they get a "b"/"e" pair (own Perfetto track, exempt from
      // the slice-nesting invariant) instead of a complete "X" slice.
      std::snprintf(head, sizeof(head),
                    ", {\"ph\": \"b\", \"pid\": 1, \"tid\": %.0f, "
                    "\"id\": %llu, \"ts\": %.3f, ",
                    tid, static_cast<unsigned long long>(async_id),
                    ev.start_ns / 1e3);
    } else {
      std::snprintf(head, sizeof(head),
                    ", {\"ph\": \"X\", \"pid\": 1, \"tid\": %.0f, \"ts\": %.3f, "
                    "\"dur\": %.3f, ",
                    tid, ev.start_ns / 1e3, ev.dur_ns / 1e3);
    }
    out += head;
    out += "\"cat\": ";
    append_json_string(out, ev.category);
    out += ", \"name\": ";
    append_json_string(out, ev.name);
    out += ", \"args\": {\"wall_ns\": ";
    append_json_number(out, static_cast<double>(ev.dur_ns));
    out += ", \"modeled_sgx_s\": ";
    append_json_number(out, ev.modeled_s);
    for (int i = 0; i < nargs; ++i) {
      out += ", ";
      append_json_string(out, ev.args[i].key);
      out += ": ";
      append_json_number(out, ev.args[i].value);
    }
    out += "}}";
    if (ev.async) {
      std::snprintf(head, sizeof(head),
                    ", {\"ph\": \"e\", \"pid\": 1, \"tid\": %.0f, "
                    "\"id\": %llu, \"ts\": %.3f, ",
                    tid, static_cast<unsigned long long>(async_id),
                    (ev.start_ns + ev.dur_ns) / 1e3);
      out += head;
      out += "\"cat\": ";
      append_json_string(out, ev.category);
      out += ", \"name\": ";
      append_json_string(out, ev.name);
      out += ", \"args\": {}}";
      ++async_id;
    }
  }
  out += "]}\n";
  return out;
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  GV_CHECK(f.good(), "cannot open trace output file: " + path);
  f << to_chrome_json();
  GV_CHECK(f.good(), "failed writing trace output file: " + path);
}

// --- Trace JSON validation (schema walk + nesting check). --------------------

namespace {

struct SliceEvent {
  double tid = 0.0;
  double ts = 0.0;
  double dur = 0.0;
  const std::string* name = nullptr;
};

bool trace_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool validate_trace_json(const std::string& json, std::string* error) {
  JsonValue root;
  std::string why;
  if (!parse_json(json, &root, &why)) {
    return trace_error(error, "JSON parse error: " + why);
  }
  const JsonValue* events =
      root.get("traceEvents", JsonValue::Type::kArray);
  if (events == nullptr) return trace_error(error, "no traceEvents array");

  // Every event's ph/name must be strings and its tid/ts/dur numbers when
  // present; complete ("X") slices take part in the nesting check.
  static const std::string kUnnamed;
  std::vector<SliceEvent> slices;
  for (const JsonValue& ev : events->array) {
    if (ev.type != JsonValue::Type::kObject) continue;
    for (const char* key : {"ph", "name"}) {
      const JsonValue* v = ev.find(key);
      if (v != nullptr && v->type != JsonValue::Type::kString) {
        return trace_error(error, std::string("event ") + key +
                                      " is not a string");
      }
    }
    SliceEvent slice;
    for (const auto& [key, field] :
         {std::pair{"tid", &slice.tid}, std::pair{"ts", &slice.ts},
          std::pair{"dur", &slice.dur}}) {
      const JsonValue* v = ev.find(key);
      if (v == nullptr) continue;
      if (v->type != JsonValue::Type::kNumber) {
        return trace_error(error, std::string("event ") + key +
                                      " is not a number");
      }
      *field = v->number;
    }
    const JsonValue* ph = ev.get("ph", JsonValue::Type::kString);
    if (ph == nullptr || ph->str != "X") continue;
    const JsonValue* name = ev.get("name", JsonValue::Type::kString);
    slice.name = name != nullptr ? &name->str : &kUnnamed;
    slices.push_back(slice);
  }

  // Per-thread nesting: sorted by (ts asc, dur desc), every slice must lie
  // entirely inside the enclosing open slice or after it — a partial
  // overlap means a span outlived its parent, which RAII emission forbids.
  std::map<double, std::vector<const SliceEvent*>> by_tid;
  for (const auto& ev : slices) by_tid[ev.tid].push_back(&ev);
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(),
              [](const SliceEvent* a, const SliceEvent* b) {
                return a->ts != b->ts ? a->ts < b->ts : a->dur > b->dur;
              });
    std::vector<const SliceEvent*> stack;
    for (const SliceEvent* ev : evs) {
      while (!stack.empty() &&
             stack.back()->ts + stack.back()->dur <= ev->ts) {
        stack.pop_back();
      }
      if (!stack.empty() &&
          ev->ts + ev->dur > stack.back()->ts + stack.back()->dur + 1e-6) {
        return trace_error(error, "slice '" + *ev->name + "' (tid " +
                                      std::to_string(tid) +
                                      ") partially overlaps enclosing slice '" +
                                      *stack.back()->name + "'");
      }
      stack.push_back(ev);
    }
  }
  return true;
}

}  // namespace gv
