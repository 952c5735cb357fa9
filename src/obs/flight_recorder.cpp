#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile_export.hpp"
#include "obs/trace.hpp"

namespace gv {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeadShard:
      return "dead_shard";
    case FaultKind::kPromotionFailure:
      return "promotion_failure";
    case FaultKind::kChannelAnomaly:
      return "channel_anomaly";
    case FaultKind::kManual:
      return "manual";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::configure(const std::string& dir, std::size_t max_spans) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::lock_guard<std::mutex> lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  armed_ = true;
  dir_ = dir;
  max_spans_ = max_spans;
}

void FlightRecorder::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  armed_ = false;
}

bool FlightRecorder::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return armed_;
}

void FlightRecorder::set_topology_provider(
    const void* owner, std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  topology_owner_ = owner;
  topology_ = std::move(provider);
}

void FlightRecorder::clear_topology_provider(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  if (topology_owner_ != owner) return;
  topology_owner_ = nullptr;
  topology_ = nullptr;
}

std::uint64_t FlightRecorder::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return trips_;
}

std::string FlightRecorder::trip(FaultKind kind, int shard,
                                 const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  ++trips_;
  MetricsRegistry::global()
      .counter("flight.trips", MetricLabels::of("kind", fault_kind_name(kind)))
      .add(1);
  if (!armed_) return "";

  auto& rec = TraceRecorder::instance();
  std::string out = "{\"schema\": \"gnnvault.flight_recorder.v2\"";
  out += ", \"seq\": " + std::to_string(seq_);
  out += ", \"wall_ns\": " + std::to_string(rec.now_ns());
  out += ", \"fault\": {\"kind\": \"";
  out += fault_kind_name(kind);
  out += "\", \"shard\": " + std::to_string(shard);
  out += ", \"detail\": ";
  append_json_string(out, detail);
  out += "}";

  // Most recent spans across every thread ring (snapshot() sorts by start).
  out += ", \"spans\": [";
  {
    const auto events = rec.snapshot();
    const std::size_t take = std::min(max_spans_, events.size());
    for (std::size_t i = events.size() - take; i < events.size(); ++i) {
      const auto& ev = events[i];
      if (i != events.size() - take) out += ", ";
      out += "{\"cat\": ";
      append_json_string(out, ev.category);
      out += ", \"name\": ";
      append_json_string(out, ev.name);
      out += ", \"ts_ns\": " + std::to_string(ev.start_ns);
      out += ", \"dur_ns\": " + std::to_string(ev.dur_ns);
      out += ", \"modeled_sgx_s\": ";
      append_json_number(out, ev.modeled_s);
      out += ", \"args\": {";
      for (int a = 0; a < ev.num_args; ++a) {
        if (a != 0) out += ", ";
        append_json_string(out, ev.args[a].key);
        out += ": ";
        append_json_number(out, ev.args[a].value);
      }
      out += "}}";
    }
  }
  out += "]";

  out += ", \"metrics\": " + MetricsRegistry::global().to_json();
  // EngineScope ops snapshot (cached ledger + last-pulled engine probes):
  // leaf-lock-only, so it is safe under the fault-path locks trip() allows.
  out += ", \"ops\": " + ops_report_cached();
  out += ", \"topology\": ";
  if (topology_) {
    // A provider that throws mid-fault must not mask the fault itself.
    try {
      out += topology_();
    } catch (const std::exception& e) {
      out += "null";
      GV_LOG_WARN << "flight-recorder topology provider failed: " << e.what();
    }
  } else {
    out += "null";
  }
  out += "}\n";

  char name[64];
  std::snprintf(name, sizeof(name), "flight_%04llu_%s.json",
                static_cast<unsigned long long>(seq_), fault_kind_name(kind));
  ++seq_;
  const std::string path = dir_ + "/" + name;
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) {
    GV_LOG_WARN << "flight recorder cannot open " << path;
    return "";
  }
  f << out;
  if (!f.good()) {
    GV_LOG_WARN << "flight recorder failed writing " << path;
    return "";
  }
  return path;
}

// --- Bundle validation: a schema walk over the shared codec's tree. ---------

namespace {

bool bundle_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool validate_flight_bundle(const std::string& json, std::string* error) {
  using Type = JsonValue::Type;
  JsonValue root;
  std::string why;
  if (!parse_json(json, &root, &why)) return bundle_error(error, why);
  if (root.type != Type::kObject) {
    return bundle_error(error, "bundle root is not an object");
  }

  const JsonValue* schema = root.get("schema", Type::kString);
  if (schema == nullptr || schema->str != "gnnvault.flight_recorder.v2") {
    return bundle_error(error, "missing or unknown schema");
  }
  for (const char* key : {"seq", "wall_ns"}) {
    if (root.get(key, Type::kNumber) == nullptr) {
      return bundle_error(error, std::string(key) + " missing or not a number");
    }
  }

  const JsonValue* fault = root.get("fault", Type::kObject);
  if (fault == nullptr) {
    return bundle_error(error, "fault missing or not an object");
  }
  const JsonValue* fkind = fault->get("kind", Type::kString);
  if (fkind == nullptr) {
    return bundle_error(error, "fault.kind missing or not a string");
  }
  bool known = false;
  for (const auto k : {FaultKind::kDeadShard, FaultKind::kPromotionFailure,
                       FaultKind::kChannelAnomaly, FaultKind::kManual}) {
    if (fkind->str == fault_kind_name(k)) known = true;
  }
  if (!known) {
    return bundle_error(error,
                        "fault.kind '" + fkind->str + "' is not a known fault");
  }
  if (fault->get("shard", Type::kNumber) == nullptr) {
    return bundle_error(error, "fault.shard missing or not a number");
  }
  if (fault->get("detail", Type::kString) == nullptr) {
    return bundle_error(error, "fault.detail missing or not a string");
  }

  const JsonValue* spans = root.get("spans", Type::kArray);
  if (spans == nullptr) {
    return bundle_error(error, "spans missing or not an array");
  }
  for (const JsonValue& sp : spans->array) {
    if (sp.type != Type::kObject) {
      return bundle_error(error, "span entry is not an object");
    }
    for (const char* key : {"cat", "name"}) {
      if (sp.get(key, Type::kString) == nullptr) {
        return bundle_error(error,
                            std::string("span ") + key + " missing/not string");
      }
    }
    for (const char* key : {"ts_ns", "dur_ns", "modeled_sgx_s"}) {
      if (sp.get(key, Type::kNumber) == nullptr) {
        return bundle_error(error,
                            std::string("span ") + key + " missing/not number");
      }
    }
  }

  const JsonValue* metrics = root.get("metrics", Type::kObject);
  if (metrics == nullptr) {
    return bundle_error(error, "metrics missing or not an object");
  }
  for (const char* key : {"counters", "gauges", "histograms"}) {
    if (metrics->get(key, Type::kArray) == nullptr) {
      return bundle_error(error,
                          std::string("metrics.") + key + " missing/not array");
    }
  }

  const JsonValue* topology = root.find("topology");
  if (topology == nullptr) return bundle_error(error, "topology missing");
  if (topology->type != Type::kObject && topology->type != Type::kNull) {
    return bundle_error(error, "topology must be an object or null");
  }
  return true;
}

}  // namespace gv
