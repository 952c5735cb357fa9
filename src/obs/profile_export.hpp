// EngineScope profile export: folded-stack profiles + the unified
// operations report.
//
// The TraceRecorder's Chrome JSON answers "what did ONE query do"; the
// questions EngineScope adds are aggregate — "where does the fleet's wall
// time actually go" and "what is the full operational state right now".
//
//   folded_profile()   Aggregates the recorder's retained spans into the
//                      Brendan Gregg folded-stack format: one line per
//                      distinct span stack, `root;frame;frame <self_ns>`,
//                      loadable directly by flamegraph.pl and speedscope
//                      (https://speedscope.app auto-detects the format).
//                      Stacks are reconstructed per thread from interval
//                      nesting (the well-nested invariant RAII emission
//                      guarantees); async events are skipped (they overlap
//                      the sync stack by design).  Counts are SELF wall
//                      nanoseconds: a frame's own time minus its children.
//
//   ops_report()       One validated JSON snapshot merging the global
//                      MetricsRegistry dump, the TenantLedger rows, and
//                      every live EngineProbe: the "everything" poll a
//                      scraper or an operator grabs.  The _cached variant
//                      touches only leaf telemetry locks so FlightRecorder
//                      bundles can attach it from inside trip().
//
// validate_folded() checks the folded grammar line by line;
// validate_ops_report() walks the strict reader's tree (common/json.hpp,
// which also says why one shared reader is still an independent check).
// CI re-checks both artifacts with stock Python.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace gv {

/// Fold `events` (a TraceRecorder::snapshot()) into folded-stack lines.
/// Frames render as "category/name" (';' and ' ' sanitized to '_'); each
/// thread's stacks root at "tid_<n>".  Lines with zero self-time are
/// omitted.  Deterministic: lines sort lexicographically.
std::string folded_profile(const std::vector<TraceEvent>& events);

/// folded_profile() over the live recorder's retained events.
std::string folded_profile_snapshot();

/// Grammar check: every line is `frame(;frame)* <positive int>`, frames
/// non-empty and space-free.  An empty profile fails (the CI artifact gate
/// must notice a silently-disabled recorder).
bool validate_folded(const std::string& folded, std::string* error = nullptr);

void write_folded(const std::string& path);

/// {"schema":"gnnvault.ops_report.v1","wall_ns":...,"metrics":{...},
///  "tenants":{...},"engines":[...]}.  Live: pulls every EngineProbe and
/// every TenantLedger provider first — do not call holding locks at or
/// above kServerState.
std::string ops_report();

/// Leaf-lock-only variant (cached ledger rows, cached engine snapshots,
/// current registry values) for FlightRecorder::trip().
std::string ops_report_cached();

bool validate_ops_report(const std::string& json, std::string* error = nullptr);

void write_ops_report(const std::string& path);

}  // namespace gv
