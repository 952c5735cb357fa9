#include "obs/profile_export.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/engine_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/tenant_ledger.hpp"

namespace gv {

// --- Folded-stack export. ----------------------------------------------------

namespace {

/// "category/name" with the folded format's structural characters (';'
/// separates frames, ' ' separates stack from count) replaced.
std::string frame_name(const TraceEvent& ev) {
  std::string out;
  out.reserve(32);
  for (const char* p : {ev.category, ev.name}) {
    if (!out.empty()) out += '/';
    for (; p != nullptr && *p != '\0'; ++p) {
      const char c = *p;
      out += (c == ';' || c == ' ' || c == '\n' || c == '\t') ? '_' : c;
    }
  }
  return out.empty() ? std::string("unknown") : out;
}

std::uint32_t event_tid(const TraceEvent& ev) {
  for (int i = 0; i < ev.num_args; ++i) {
    if (std::strcmp(ev.args[i].key, "tid") == 0) {
      return static_cast<std::uint32_t>(ev.args[i].value);
    }
  }
  return 0;
}

struct OpenFrame {
  std::uint64_t end_ns = 0;
  std::uint64_t children_ns = 0;
  std::uint64_t dur_ns = 0;
  std::string stack;  // full ';'-joined path including this frame
};

void close_frame(std::map<std::string, std::uint64_t>& self_ns,
                 const OpenFrame& f) {
  const std::uint64_t self =
      f.dur_ns > f.children_ns ? f.dur_ns - f.children_ns : 0;
  if (self > 0) self_ns[f.stack] += self;
}

}  // namespace

std::string folded_profile(const std::vector<TraceEvent>& events) {
  // Bucket by emitting thread; snapshot() appended a "tid" arg per ring.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& ev : events) {
    if (ev.async) continue;  // overlaps the sync stack by design
    by_tid[event_tid(ev)].push_back(&ev);
  }

  std::map<std::string, std::uint64_t> self_ns;  // merged + sorted output
  for (auto& [tid, evs] : by_tid) {
    // Start ascending; ties broken longer-first so a parent precedes the
    // child that starts at the same instant.
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->start_ns != b->start_ns) {
                         return a->start_ns < b->start_ns;
                       }
                       return a->dur_ns > b->dur_ns;
                     });
    const std::string root = "tid_" + std::to_string(tid);
    std::vector<OpenFrame> stack;
    for (const TraceEvent* ev : evs) {
      // Close frames this event starts at or after.
      while (!stack.empty() && ev->start_ns >= stack.back().end_ns) {
        close_frame(self_ns, stack.back());
        stack.pop_back();
      }
      OpenFrame f;
      f.dur_ns = ev->dur_ns;
      f.end_ns = ev->start_ns + ev->dur_ns;
      if (!stack.empty()) {
        // Defensive clamp: a slightly-overhanging child (clock skew at ns
        // granularity) is trimmed to its parent rather than corrupting the
        // parent's self-time.
        if (f.end_ns > stack.back().end_ns) {
          f.end_ns = stack.back().end_ns;
          f.dur_ns = f.end_ns > ev->start_ns ? f.end_ns - ev->start_ns : 0;
        }
        stack.back().children_ns += f.dur_ns;
        f.stack = stack.back().stack + ";" + frame_name(*ev);
      } else {
        f.stack = root + ";" + frame_name(*ev);
      }
      stack.push_back(std::move(f));
    }
    while (!stack.empty()) {
      close_frame(self_ns, stack.back());
      stack.pop_back();
    }
  }

  std::string out;
  for (const auto& [stack, self] : self_ns) {
    out += stack;
    out += ' ';
    out += std::to_string(self);
    out += '\n';
  }
  return out;
}

std::string folded_profile_snapshot() {
  return folded_profile(TraceRecorder::instance().snapshot());
}

bool validate_folded(const std::string& folded, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::size_t lines = 0;
  std::istringstream is(folded);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      return fail("line " + std::to_string(lines) + ": no '<stack> <count>'");
    }
    const std::string stack = line.substr(0, space);
    const std::string count = line.substr(space + 1);
    for (char c : count) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return fail("line " + std::to_string(lines) + ": non-integer count");
      }
    }
    if (count == "0" || count.empty()) {
      return fail("line " + std::to_string(lines) + ": count must be > 0");
    }
    // Frames: non-empty, no spaces (guaranteed above by rfind), split on ';'.
    std::size_t start = 0;
    for (;;) {
      const std::size_t semi = stack.find(';', start);
      const std::string frame = stack.substr(
          start, semi == std::string::npos ? std::string::npos : semi - start);
      if (frame.empty()) {
        return fail("line " + std::to_string(lines) + ": empty frame");
      }
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }
  if (lines == 0) return fail("empty profile (recorder disabled?)");
  return true;
}

void write_folded(const std::string& path) {
  std::ofstream out(path);
  GV_CHECK(out.good(), "cannot open folded profile path");
  out << folded_profile_snapshot();
}

// --- Ops report. -------------------------------------------------------------

namespace {

std::string render_ops_report(const std::string& metrics,
                              const std::string& tenants,
                              const std::string& engines) {
  std::ostringstream os;
  os << "{\"schema\":\"gnnvault.ops_report.v1\",\"wall_ns\":"
     << TraceRecorder::instance().now_ns() << ",\"metrics\":" << metrics
     << ",\"tenants\":" << tenants << ",\"engines\":" << engines << "}";
  return os.str();
}

}  // namespace

std::string ops_report() {
  EngineProbe::pull_all();
  const std::string tenants = TenantLedger::global().to_json();
  return render_ops_report(MetricsRegistry::global().to_json(), tenants,
                           EngineProbe::engines_json(/*live=*/false));
}

std::string ops_report_cached() {
  return render_ops_report(MetricsRegistry::global().to_json(),
                           TenantLedger::global().cached_json(),
                           EngineProbe::engines_json(/*live=*/false));
}

void write_ops_report(const std::string& path) {
  std::ofstream out(path);
  GV_CHECK(out.good(), "cannot open ops report path");
  out << ops_report();
}

// --- Ops-report validation: a schema walk over the shared codec's tree. ----

namespace {

bool report_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool validate_ops_report(const std::string& json, std::string* error) {
  using Type = JsonValue::Type;
  JsonValue root;
  std::string why;
  if (!parse_json(json, &root, &why)) return report_error(error, why);
  if (root.type != Type::kObject) {
    return report_error(error, "report root is not an object");
  }
  const JsonValue* schema = root.get("schema", Type::kString);
  if (schema == nullptr || schema->str != "gnnvault.ops_report.v1") {
    return report_error(error, "missing or unknown schema");
  }
  if (root.get("wall_ns", Type::kNumber) == nullptr) {
    return report_error(error, "wall_ns missing or not a number");
  }
  const JsonValue* metrics = root.get("metrics", Type::kObject);
  if (metrics == nullptr) {
    return report_error(error, "metrics missing or not an object");
  }
  for (const char* key : {"counters", "gauges", "histograms"}) {
    if (metrics->get(key, Type::kArray) == nullptr) {
      return report_error(error, std::string("metrics.") + key + " missing");
    }
  }
  const JsonValue* tenants = root.get("tenants", Type::kObject);
  if (tenants == nullptr) {
    return report_error(error, "tenants missing or not an object");
  }
  const JsonValue* tschema = tenants->get("schema", Type::kString);
  if (tschema == nullptr || tschema->str != "gnnvault.tenant_ledger.v1") {
    return report_error(error, "tenants.schema missing or unknown");
  }
  const JsonValue* rows = tenants->get("tenants", Type::kArray);
  if (rows == nullptr) {
    return report_error(error, "tenants.tenants missing or not an array");
  }
  if (tenants->get("fleet", Type::kObject) == nullptr) {
    return report_error(error, "tenants.fleet missing or not an object");
  }
  for (const JsonValue& row : rows->array) {
    if (row.get("tenant", Type::kString) == nullptr) {
      return report_error(error, "tenant row missing its name");
    }
    for (const char* key : {"modeled_seconds", "ecalls", "channel_bytes",
                            "epc_resident_bytes"}) {
      if (row.get(key, Type::kNumber) == nullptr) {
        return report_error(error, std::string("tenant row missing ") + key);
      }
    }
  }
  const JsonValue* engines = root.get("engines", Type::kArray);
  if (engines == nullptr) {
    return report_error(error, "engines missing or not an array");
  }
  for (const JsonValue& engine : engines->array) {
    if (engine.type != Type::kObject) {
      return report_error(error, "engine entry is not an object");
    }
    if (engine.object.empty()) continue;  // never-pulled placeholder
    if (engine.get("engine", Type::kString) == nullptr) {
      return report_error(error, "engine entry missing engine");
    }
    for (const char* key : {"workers", "steal_hits", "steal_misses"}) {
      if (engine.get(key, Type::kNumber) == nullptr) {
        return report_error(error, std::string("engine entry missing ") + key);
      }
    }
  }
  return true;
}

}  // namespace gv
