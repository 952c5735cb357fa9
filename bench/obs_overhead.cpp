// VaultScope overhead: what does fleet-wide tracing + the metrics registry
// cost the serving path?
//
// The same kill -> promote -> cold-query scenario runs twice on identically
// planned fleets — tracing disabled (the default) and enabled — and the
// bench reports the MODELED throughput of the two arms for context.  The
// <3% overhead GATE is deterministic: the cost model's compute terms are
// measured native wall time, so the end-to-end off/on delta carries shared-
// CPU scheduler noise far above 3%; instead the bench measures per-span
// emission cost in a tight loop and charges it against the traced arm's
// span volume per modeled serving second.  The enabled run's trace is
// exported to
// bench_out/trace_serve.json, validated (parse + per-thread slice nesting),
// and checked to actually cover the scenario: queue waits, batch flushes,
// per-shard ecalls, per-layer halo exchange, promotion phases, cold-path
// recursion.
//
// QueryLens rides the same scenario: the trace must show per-query causal
// attribution (every batch_flush / shard_lookup / cold_subset span carries
// a query_id, and at least one id groups the flush, the cold walk AND the
// peer shard's halo serving — proof the id crossed the attested channel);
// and every kill_shard leaves a schema-valid flight bundle under
// bench_out/flight/ for CI's independent Python validator.
//
// The bench also pins the ServerMetrics::snapshot() fix: the legacy
// sort-8192-doubles-under-mutex latency reservoir is rebuilt inline and
// raced against the log-bucketed Histogram snapshot it was replaced with;
// the histogram must win (O(buckets) vs O(window log window)).
//
// Honors GNNVAULT_BENCH_FAST, GNNVAULT_SEED, GNNVAULT_SCALE; `--json
// <path>` writes the machine-readable artifact CI uploads.
#include "bench_common.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_safety.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/registry.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_server.hpp"

using namespace gv;
using namespace gv::bench;

namespace {

struct ServeRun {
  double modeled_rps = 0.0;
  double modeled_seconds = 0.0;
  bool exact = true;
};

/// Cold queries -> store materialization -> warm queries -> kill ->
/// fenced queries against the promoted PRIMARY.  Every label is checked
/// against the single-enclave oracle.
ServeRun run_scenario(const Dataset& ds, const TrainedVault& vault,
                      std::uint32_t K, std::uint64_t seed,
                      const std::vector<std::uint32_t>& truth) {
  ServeRun out;
  ShardedServerConfig scfg;
  scfg.server.max_batch = 16;
  // A wide batching window so workers wait for full batches instead of
  // racing the submitting thread: partial batches multiply per-ecall fixed
  // modeled costs, and that scheduler-dependent batch-size lottery swings
  // per-run modeled throughput by ±10% — far above the 3% overhead pin
  // this bench exists to enforce.
  scfg.server.max_wait = std::chrono::milliseconds(20);
  scfg.server.worker_threads = 2;
  scfg.replicate = true;
  scfg.materialize_on_start = false;  // start COLD: demand-driven cross-shard path
  ShardedVaultServer cold(ds, vault, ShardPlanner::plan(ds, vault, K), {}, scfg);

  Rng rng(seed ^ 0x0b5e7eadull);
  const auto wave = [&](std::size_t n) {
    std::vector<std::uint32_t> nodes(n);
    for (auto& v : nodes) {
      v = static_cast<std::uint32_t>(rng.uniform_index(ds.num_nodes()));
    }
    auto futs = cold.submit_many(nodes);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out.exact = out.exact && futs[i].get() == truth[nodes[i]];
    }
  };

  wave(64);  // cold path: stores not yet materialized
  cold.update_features(ds.features);  // materialize + replica re-ship
  wave(128);                          // warm store lookups

  const std::uint32_t victim =
      cold.deployment().plan().owner[rng.uniform_index(ds.num_nodes())];
  // Let replication land before the kill: a kill that races the replica
  // ship falls back to a full cold re-materialization, whose modeled cost
  // dwarfs the fenced wave and turns the overhead comparison bimodal.
  if (cold.replicas() != nullptr) cold.replicas()->wait_ready();
  cold.kill_shard(victim);
  wave(128);  // fenced until promotion lands, then the new PRIMARY answers
  cold.flush();
  // Quiesce the control plane before the meter snapshot: the async
  // promotion (re-materialization + boundary rebuild) and the restaff
  // re-replication book modeled seconds whenever they finish, so an
  // unquiesced snapshot includes a scheduler-dependent fraction of them.
  cold.join_promotion();
  if (cold.replicas() != nullptr) cold.replicas()->wait_ready();

  const MetricsSnapshot s = cold.stats();
  out.modeled_rps = s.requests_per_second;
  out.modeled_seconds = s.modeled_seconds;
  return out;
}

/// The pre-VaultScope latency reservoir, rebuilt verbatim: a fixed window
/// of doubles behind a mutex, fully copied + sorted on every snapshot.
class LegacyReservoir {
 public:
  static constexpr std::size_t kWindow = 8192;

  void record(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    if (window_.size() < kWindow) {
      window_.push_back(ms);
    } else {
      window_[next_++ % kWindow] = ms;
    }
  }

  void percentiles(double* p50, double* p95, double* p99) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> sorted = window_;
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&](double p) {
      if (sorted.empty()) return 0.0;
      const std::size_t i = static_cast<std::size_t>(
          p * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(i, sorted.size() - 1)];
    };
    *p50 = at(0.50);
    *p95 = at(0.95);
    *p99 = at(0.99);
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> window_;
  std::size_t next_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  const BenchSettings s = settings();
  const double scale = bench_fast_mode() ? s.scale : (s.scale < 1.0 ? s.scale : 0.35);
  const Dataset ds = load_dataset(DatasetId::kPubmed, s.seed, scale);
  GV_LOG_INFO << "obs_overhead: " << ds.name << " n=" << ds.num_nodes()
              << " e=" << ds.graph.num_directed_edges();

  VaultTrainConfig cfg = vault_config(DatasetId::kPubmed, s);
  TrainedVault vault = train_vault(ds, cfg);
  const auto truth = vault.predict_rectified(ds.features);
  constexpr std::uint32_t K = 4;

  auto& rec = TraceRecorder::instance();

  // Untimed warm-up: the first fleet after training pays one-off costs
  // (page cache, allocator arenas, replica thread spin-up) that would
  // otherwise land entirely on the tracing-off arm and masquerade as
  // negative overhead.  Runs before the flight recorder is armed, so its
  // kill trips no bundle and its cold queries stay out of the count below.
  (void)run_scenario(ds, vault, K, s.seed + 99, truth);

  // --- QueryLens telemetry rides along: the flight recorder is armed over
  // BOTH arms (each run_scenario kill trips a dead-shard bundle into
  // bench_out/flight/, which CI re-validates with an independent Python
  // parser).  Armed-for-both keeps the off-vs-on comparison fair: bundle IO
  // costs the two arms identically. ------------------------------------------
  auto& fr = FlightRecorder::instance();
  const std::string flight_dir = out_dir() + "/flight";
  std::filesystem::remove_all(flight_dir);
  fr.configure(flight_dir, 256);
  MetricsRegistry& greg = MetricsRegistry::global();
  const std::uint64_t cold_queries_before = greg.counter("cold.queries").value();

  // --- Throughput with tracing off vs on (5 runs each; best run kept, so
  // scheduler noise in the wall-derived meter does not masquerade as
  // tracing overhead — batch formation races the submitter, so per-run
  // modeled throughput is noisy and only the per-arm envelope is stable). ----
  ServeRun off, on;
  rec.set_enabled(false);
  for (int rep = 0; rep < 5; ++rep) {
    const ServeRun r = run_scenario(ds, vault, K, s.seed + rep, truth);
    GV_CHECK(r.exact, "serving run (tracing off) answered inexactly");
    if (r.modeled_rps > off.modeled_rps) off = r;
  }
  rec.clear();
  rec.set_enabled(true);
  for (int rep = 0; rep < 5; ++rep) {
    const ServeRun r = run_scenario(ds, vault, K, s.seed + rep, truth);
    GV_CHECK(r.exact, "serving run (tracing on) answered inexactly");
    if (r.modeled_rps > on.modeled_rps) on = r;
  }
  rec.set_enabled(false);

  const double overhead_pct =
      off.modeled_rps > 0.0
          ? (off.modeled_rps - on.modeled_rps) / off.modeled_rps * 100.0
          : 0.0;

  // --- Export + validate the enabled run's trace. ----------------------------
  const std::string trace_path = out_dir() + "/trace_serve.json";
  rec.write_chrome_json(trace_path);
  const std::string trace_json = rec.to_chrome_json();
  std::string why;
  GV_CHECK(validate_trace_json(trace_json, &why), "trace invalid: " + why);

  const auto events = rec.snapshot();
  std::set<std::string> names;
  for (const auto& ev : events) names.insert(ev.name);
  for (const char* required :
       {"queue_wait", "batch_flush", "route_batch", "shard_lookup", "ecall",
        "cold_forward", "cold_layer_compute", "layer_compute", "halo_send",
        "promotion", "unseal", "adopt"}) {
    GV_CHECK(names.count(required) == 1,
             std::string("trace is missing required span: ") + required);
  }
  // Dual clocks: at least one ecall span must carry a modeled-SGX charge.
  double traced_modeled = 0.0;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "ecall") traced_modeled += ev.modeled_s;
  }
  GV_CHECK(traced_modeled > 0.0, "no modeled-SGX seconds attached to ecall spans");

  // --- QueryLens attribution coverage.  Serving spans must be query-tagged
  // (the scope auto-attach), and at least one query id must group the batch
  // flush, the cold walk AND the PEER shard's halo serving — the latter only
  // happens if the id genuinely crossed the attested channel. ----------------
  // "halo_serve" is intentionally NOT in the strict set: promotion
  // re-materialization runs the same cold walk outside any query (operator
  // kill_shard), and those serves are correctly unattributed.
  std::map<std::uint64_t, std::set<std::string>> by_query;
  std::size_t untagged_serving = 0, tagged_serving = 0;
  const std::set<std::string> serving_spans{"batch_flush", "cold_subset",
                                            "shard_lookup"};
  for (const auto& ev : events) {
    std::uint64_t qid = 0;
    for (int i = 0; i < ev.num_args; ++i) {
      if (std::string(ev.args[i].key) == "query_id" && ev.args[i].value > 0) {
        qid = static_cast<std::uint64_t>(ev.args[i].value);
      }
    }
    if (qid != 0) by_query[qid].insert(ev.name);
    if (serving_spans.count(ev.name)) {
      (qid != 0 ? tagged_serving : untagged_serving) += 1;
    }
  }
  GV_CHECK(tagged_serving > 0, "no serving span carries a query_id arg");
  GV_CHECK(untagged_serving == 0,
           "a serving span escaped query attribution (" +
               std::to_string(untagged_serving) + " untagged)");
  std::size_t cascades = 0;
  for (const auto& [qid, span_names] : by_query) {
    if (span_names.count("batch_flush") && span_names.count("cold_subset") &&
        span_names.count("halo_serve")) {
      ++cascades;
    }
  }
  GV_CHECK(cascades > 0,
           "no single query id spans flush + cold walk + peer halo serving");

  // --- Legacy reservoir vs Histogram snapshot microbench. --------------------
  LegacyReservoir legacy;
  Histogram hist;
  Rng lat_rng(s.seed ^ 0x1a7e0cull);
  for (std::size_t i = 0; i < LegacyReservoir::kWindow; ++i) {
    const double ms = 0.05 + 20.0 * lat_rng.uniform();
    legacy.record(ms);
    hist.record(ms);
  }
  constexpr int kSnapshots = 500;
  double sink = 0.0;
  Stopwatch legacy_watch;
  for (int i = 0; i < kSnapshots; ++i) {
    double p50, p95, p99;
    legacy.percentiles(&p50, &p95, &p99);
    sink += p99;
  }
  const double legacy_ms = legacy_watch.seconds() * 1e3;
  Stopwatch hist_watch;
  for (int i = 0; i < kSnapshots; ++i) {
    const auto snap = hist.snapshot();
    sink += snap.percentile(0.99);
  }
  const double hist_ms = hist_watch.seconds() * 1e3;
  GV_CHECK(sink > 0.0, "microbench sink must stay observable");
  GV_CHECK(hist_ms < legacy_ms,
           "histogram snapshot must beat the legacy sorted reservoir");

  GV_CHECK(greg.counter("cold.queries").value() > cold_queries_before,
           "scenario served no cold queries");

  // --- Flight bundles from the scenario's kills (validated again by CI's
  // independent Python parser; the files stay under bench_out/flight). --------
  std::size_t flight_bundles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(flight_dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bundle_err;
    GV_CHECK(validate_flight_bundle(buf.str(), &bundle_err),
             entry.path().string() + " invalid: " + bundle_err);
    ++flight_bundles;
  }
  GV_CHECK(flight_bundles >= 6,
           "each rep's kill_shard should have dumped a dead-shard bundle");
  fr.disarm();

  // --- Deterministic <3% overhead pin. ---------------------------------------
  // The off/on comparison above is reported for context, but it cannot GATE
  // a 3% bound: the meter's compute terms are measured native wall time, so
  // on a shared CPU both arms carry scheduler noise well above 3% and the
  // end-to-end delta is dominated by the machine, not by tracing.  The pin
  // instead charges the measured per-span emission cost against the traced
  // arm's span volume: (spans per rep x seconds per span) over the rep's
  // modeled serving time bounds the fraction of a serving second tracing
  // can consume.  Runs AFTER every trace-content check — the probe's 200k
  // spans wrap the ring and evict the serving spans snapshotted above.
  rec.set_enabled(true);
  constexpr int kEmitIters = 200000;
  Stopwatch emit_watch;
  for (int i = 0; i < kEmitIters; ++i) {
    TraceSpan probe("bench", "emit_probe");
    probe.arg("i", double(i));
  }
  const double per_span_s = emit_watch.seconds() / double(kEmitIters);
  rec.set_enabled(false);
  rec.clear();
  const double spans_per_rep = double(events.size()) / 5.0;
  const double overhead_pin_pct = per_span_s * spans_per_rep /
                                  std::max(on.modeled_seconds, 1e-12) * 100.0;

  // --- EngineScope lock-contention profiler arms. ----------------------------
  // Same pin construction as tracing: measure the per-acquisition cost of
  // the probe's uncontended try_lock fast path (off vs on), then charge it
  // against the acquisition count of one profiled scenario rep.  The
  // end-to-end off/on throughput delta would drown in scheduler noise; the
  // (cost x volume) product is deterministic.
  constexpr int kLockIters = 200000;
  Mutex probe_mu{lockrank::kQueue};
  lockprof::set_enabled(false);
  Stopwatch lock_off_watch;
  for (int i = 0; i < kLockIters; ++i) {
    MutexLock hold(probe_mu);
  }
  const double lock_off_s = lock_off_watch.seconds();
  lockprof::set_enabled(true);
  Stopwatch lock_on_watch;
  for (int i = 0; i < kLockIters; ++i) {
    MutexLock hold(probe_mu);
  }
  const double lock_on_s = lock_on_watch.seconds();
  // Clamped: on a noisy shared CPU the on-arm can win the wall-clock coin
  // flip, and a negative per-lock cost would hide real emission overhead.
  const double per_lock_s =
      std::max(0.0, (lock_on_s - lock_off_s) / double(kLockIters));

  const std::uint64_t acq_before = lockprof::profiled_acquisitions();
  const std::uint64_t contended_before = lockprof::contended_acquisitions();
  const ServeRun prof_run = run_scenario(ds, vault, K, s.seed + 17, truth);
  GV_CHECK(prof_run.exact, "serving run (lockprof on) answered inexactly");
  const std::uint64_t lock_acquisitions =
      lockprof::profiled_acquisitions() - acq_before;
  const std::uint64_t lock_contended =
      lockprof::contended_acquisitions() - contended_before;
  GV_CHECK(lock_acquisitions > 0,
           "profiled scenario rep acquired no gv::Mutex at all");
  const double lockprof_pin_pct = per_lock_s * double(lock_acquisitions) /
                                  std::max(prof_run.modeled_seconds, 1e-12) *
                                  100.0;

  // Contended-registry scenario: four threads tight-loop the admission
  // lock's read side until the per-rank histogram provably records a wait
  // (bounded retries — a miss here means rank attribution is broken).
  const auto registry_waits = [&greg] {
    return greg
        .histogram("lock.wait_seconds", MetricLabels::of("rank", "kRegistry"))
        .snapshot()
        .count;
  };
  const std::uint64_t reg_waits_before = registry_waits();
  VaultRegistry contended_registry;
  for (int attempt = 0; attempt < 50 && registry_waits() == reg_waits_before;
       ++attempt) {
    std::vector<std::thread> hammer;
    for (int t = 0; t < 4; ++t) {
      hammer.emplace_back([&contended_registry] {
        for (int i = 0; i < 20000; ++i) {
          (void)contended_registry.has("nobody");
        }
      });
    }
    for (auto& th : hammer) th.join();
  }
  lockprof::set_enabled(false);
  const std::uint64_t registry_contended_waits =
      registry_waits() - reg_waits_before;
  GV_CHECK(registry_contended_waits > 0,
           "lock.wait_seconds{rank=kRegistry} stayed empty under a "
           "4-thread admission-lock hammer");

  const double probes_pin_pct = overhead_pin_pct + lockprof_pin_pct;

  Table table("VaultScope: tracing overhead + snapshot cost");
  table.set_header({"config", "modeled req/s", "modeled s", "trace events",
                    "snapshot ms (500x)"});
  table.add_row({"tracing off", Table::fmt(off.modeled_rps, 1),
                 Table::fmt(off.modeled_seconds, 4), "0",
                 Table::fmt(hist_ms, 2)});
  table.add_row({"tracing on", Table::fmt(on.modeled_rps, 1),
                 Table::fmt(on.modeled_seconds, 4),
                 std::to_string(events.size()), "-"});
  table.add_row({"legacy reservoir", "-", "-", "-", Table::fmt(legacy_ms, 2)});
  table.print();
  GV_LOG_INFO << "tracing overhead pin: " << Table::fmt(overhead_pin_pct, 3)
              << "% of modeled serving time ("
              << Table::fmt(per_span_s * 1e9, 0) << " ns/span, must stay < 3%); "
              << "end-to-end off/on delta " << Table::fmt(overhead_pct, 2)
              << "% (informational); snapshot speedup "
              << Table::fmt(legacy_ms / std::max(hist_ms, 1e-9), 1)
              << "x; " << by_query.size() << " traced queries, " << cascades
              << " full cross-shard cascades, " << flight_bundles
              << " flight bundles";
  GV_LOG_INFO << "lockprof pin: " << Table::fmt(lockprof_pin_pct, 3)
              << "% of modeled serving time (" << Table::fmt(per_lock_s * 1e9, 1)
              << " ns/acquisition x " << lock_acquisitions
              << " acquisitions, " << lock_contended
              << " contended); registry hammer recorded "
              << registry_contended_waits
              << " waits in lock.wait_seconds{rank=kRegistry}; all probes on: "
              << Table::fmt(probes_pin_pct, 3) << "%";
  GV_CHECK(overhead_pin_pct < 3.0,
           "tracing emission cost exceeded 3% of modeled serving time");
  GV_CHECK(probes_pin_pct < 3.0,
           "tracing + lock-profiler cost exceeded 3% of modeled serving time "
           "with every probe enabled");

  table.write_csv(out_dir() + "/obs_overhead.csv");
  write_json(args, "obs_overhead", s, {&table},
             {{"modeled_rps_off", off.modeled_rps},
              {"modeled_rps_on", on.modeled_rps},
              {"overhead_pct", overhead_pct},
              {"overhead_pin_pct", overhead_pin_pct},
              {"span_emit_ns", per_span_s * 1e9},
              {"trace_events", double(events.size())},
              {"legacy_snapshot_ms", legacy_ms},
              {"histogram_snapshot_ms", hist_ms},
              {"traced_queries", double(by_query.size())},
              {"traced_cascades", double(cascades)},
              {"flight_bundles", double(flight_bundles)},
              {"lock_probe_ns", per_lock_s * 1e9},
              {"lockprof_acquisitions", double(lock_acquisitions)},
              {"lockprof_contended", double(lock_contended)},
              {"lockprof_pin_pct", lockprof_pin_pct},
              {"registry_contended_waits", double(registry_contended_waits)},
              {"probes_pin_pct", probes_pin_pct}},
             {{"metrics", MetricsRegistry::global().to_json()}});
  return 0;
}
