// QueryLens FlightRecorder: fault-triggered postmortem bundles.
//
// A dead shard, a failed promotion or a channel-audit anomaly used to leave
// nothing behind but a log line; by the time anyone looks, the trace rings
// have wrapped and the fleet state has moved on.  The recorder is armed
// with a directory (configure()); every trip() then dumps one
// self-contained JSON bundle (schema "gnnvault.flight_recorder.v2")
// capturing the moment of the fault:
//
//   fault       kind + shard + human detail,
//   spans       the most recent TraceEvents across all thread rings
//               (query ids included, so the victim query is identifiable),
//   metrics     a full MetricsRegistry::global() snapshot,
//   ops         the leaf-lock-only ops report (cached tenant ledger rows
//               and engine snapshots),
//   topology    the registered provider's fleet JSON — per-shard alive /
//               replica-state / store flags (null when none).
//
// Bundles are sequence-numbered (`flight_<seq>_<kind>.json`) so cascading
// faults order themselves, and validate_flight_bundle() is the schema check
// (like validate_trace_json for traces) that tests run against the dumped
// file; CI re-reads the bundles with stock Python json.  Unarmed, trip() is
// a counter bump — the recorder costs nothing until a fault actually needs
// it.
//
// Lock discipline: trip() may be called from fault paths that hold
// control-plane locks (the server's promotion_mu_, the replica manager's
// replicate_mu_), so everything it calls — trace snapshot, registry
// to_json, cached ops report, topology provider — must only take its own
// leaf locks.  Topology providers in particular must read atomics /
// lock-free state, never re-enter the control plane.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/annotations.hpp"

namespace gv {

enum class FaultKind : int {
  kDeadShard = 0,
  kPromotionFailure,
  kChannelAnomaly,
  kManual,
};

/// Stable snake_case name ("dead_shard", ...), used in filenames and the
/// bundle's fault.kind field.
const char* fault_kind_name(FaultKind kind);

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Arm the recorder: bundles land in `dir` (created if missing), each
  /// carrying at most `max_spans` recent spans.
  void configure(const std::string& dir, std::size_t max_spans = 512);
  /// Disarm (trip() reverts to counting only).  The sequence number, the
  /// trip counter and the topology provider registration survive.
  void disarm();
  bool armed() const;

  /// Register the fleet-topology JSON provider.  `owner` scopes the
  /// registration: clear_topology_provider(owner) only removes a provider
  /// the same owner installed, so a dying server never unhooks its
  /// successor's.
  void set_topology_provider(const void* owner,
                             std::function<std::string()> provider);
  void clear_topology_provider(const void* owner);

  /// Record a fault.  Armed: writes the bundle and returns its path.
  /// Unarmed (or on a write failure, which must never take the serving
  /// stack down with it): returns "".  `shard` is -1 when no single shard
  /// is implicated (e.g. a manual trip).
  std::string trip(FaultKind kind, int shard, const std::string& detail);

  /// Lifetime trip() calls (armed or not).
  std::uint64_t trips() const;

 private:
  FlightRecorder() = default;

  mutable std::mutex mu_ GV_LOCK_RANK(gv::lockrank::kTelemetry);
  bool armed_ = false;
  std::string dir_;
  std::size_t max_spans_ = 512;
  std::uint64_t seq_ = 0;
  std::uint64_t trips_ = 0;
  const void* topology_owner_ = nullptr;
  std::function<std::string()> topology_;
};

/// Validate that `json` parses as a flight-recorder bundle: strict JSON
/// (common/json.hpp) whose top-level object carries schema
/// "gnnvault.flight_recorder.v2" plus the seq / fault / wall_ns / spans /
/// metrics / topology keys, with a fault object naming a known kind.  Returns true on success; on failure fills `error` (when non-null)
/// with a human-readable reason.
bool validate_flight_bundle(const std::string& json,
                            std::string* error = nullptr);

}  // namespace gv
