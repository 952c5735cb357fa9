#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/model_spec.hpp"
#include "core/pipeline.hpp"
#include "data/catalog.hpp"
#include "fleet.hpp"
#include "loadgen.hpp"
#include "obs/profile_export.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "serve/vault_server.hpp"
#include "shard/shard_planner.hpp"
#include "spans.hpp"

namespace vb {

namespace {

/// Servers use the library defaults except this worker count.
constexpr std::size_t kWorkers = 2;
/// The graph twins, their training and the node popularity order are fixed
/// (the repository's default experiment seed); --seed drives the arrival
/// times, the nodes drawn, and the fleet probe's churn, victims and probes.
constexpr std::uint64_t kDatasetSeed = 42;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Share of --seconds spent at the nominal rate, and per max-rate rung.
constexpr double kNominalShare = 0.7;
constexpr double kRungShare = 0.1;
/// Untimed open-loop warm-up at the nominal rate before the nominal phase:
/// the first second of open-loop sending carries a start-up tail.
constexpr double kWarmSeconds = 1.0;
/// Reads that warm the label cache and the serving pools before timing.
constexpr std::size_t kWarmReads = 4096;
/// The fleet probe runs this op pattern twice.
const std::vector<OpKind> kFleetPattern = {OpKind::kGraph, OpKind::kRefresh,
                                           OpKind::kKill, OpKind::kRefresh};

using CheckFn = std::function<bool(std::uint32_t node, std::uint32_t label)>;

gv::VaultTrainConfig train_config(gv::DatasetId id, const RunConfig& cfg) {
  gv::VaultTrainConfig tc;
  tc.spec = gv::model_spec_for_dataset(id);
  tc.backbone_train.epochs = cfg.epochs;
  tc.rectifier_train.epochs = cfg.epochs;
  tc.seed = kDatasetSeed;
  return tc;
}

/// Per-set-up timers; total_s (setup_s) leaves out the oracle
/// precomputation between training and provisioning.
struct SetupTimes {
  std::vector<double> total_s, synth_s, train_s, provision_ms;
};

struct PhaseStats {
  std::vector<double> lat_ms;  // successful requests
  Tally tally;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  /// p99 counting failed or unresolved requests as missing the limit.
  double p99_strict = 0.0;
  std::size_t inflight_mid = 0, inflight_end = 0;
};

PhaseStats analyze(const PhaseRun& run, const CheckFn& check) {
  PhaseStats st;
  const std::size_t n = run.size();
  st.tally.attempted = n;
  st.lat_ms.reserve(n);
  std::vector<double> strict;
  strict.reserve(n);
  const std::int64_t mid = run.start_ns + (run.end_send_ns - run.start_ns) / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const RequestRecord& r = run.rec[i];
    const std::int64_t done = r.done_ns.load(std::memory_order_acquire);
    const auto in_flight_at = [&](std::int64_t t) {
      return r.sched_ns <= t && (done == 0 || done > t);
    };
    st.inflight_mid += in_flight_at(mid) ? 1 : 0;
    st.inflight_end += in_flight_at(run.end_send_ns) ? 1 : 0;
    if (done == 0 || r.failed) {
      ++st.tally.failed;
      strict.push_back(1e300);
      continue;
    }
    if (!check(run.plan[i].node, r.label)) ++st.tally.wrong;
    const double ms = ns_to_ms(done - r.sched_ns);
    st.lat_ms.push_back(ms);
    strict.push_back(ms);
  }
  st.p50 = quantile(st.lat_ms, 0.5);
  st.p95 = quantile(st.lat_ms, 0.95);
  st.p99 = quantile(st.lat_ms, 0.99);
  st.p99_strict = quantile(std::move(strict), 0.99);
  return st;
}

/// Whether a phase held the service level: p99 (failed or unresolved
/// requests counting as beyond the limit) within the limit, nothing failed
/// or misanswered, and no more in flight at the end than twice the
/// mid-phase backlog (plus a batch's worth of slack).
bool held(const PhaseStats& st, double limit_ms) {
  return st.tally.failed == 0 && st.tally.wrong == 0 && st.p99_strict <= limit_ms &&
         st.inflight_end <= 2 * st.inflight_mid + 64;
}

/// Wait (bounded) for a phase's stragglers before the next phase starts.
void settle(const PhaseRun& run, double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!run.drained() && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// max_rate_rps: the highest rung of the workload's fixed ladder that held,
/// climbing from the bottom and stopping at the first rung that missed.
/// When even the bottom rung misses it reads half that rung, never 0.
double climb_ladder(const RunConfig& cfg, const NodeSampler& nodes, SeededRng& rng,
                    const SubmitFn& submit, const CheckFn& check, Tally& tally,
                    std::vector<std::unique_ptr<PhaseRun>>& keep) {
  double best = cfg.ladder_rps.front() / 2.0;
  for (const double rate : cfg.ladder_rps) {
    auto run = run_open_loop(poisson_schedule(nodes, rate, cfg.seconds * kRungShare, rng),
                             submit, now_ns() + 2'000'000, 2.0);
    settle(*run, 30.0);
    const PhaseStats st = analyze(*run, check);
    tally.add(st.tally);
    const bool pass = held(st, cfg.limit_ms);
    note("ladder %8.0f req/s: %zu sent, p50 %.3f ms, p99 %.3f ms, in flight mid %zu "
         "end %zu -> %s",
         rate, run->size(), st.p50, st.p99_strict, st.inflight_mid, st.inflight_end,
         pass ? "held" : "missed");
    keep.push_back(std::move(run));
    if (!pass) break;
    best = rate;
  }
  return best;
}

/// The spans one served batch left: its batch_flush span, its queue_wait
/// slice and the end of its last ecall.
struct BatchSpans {
  const gv::TraceEvent* flush = nullptr;
  const gv::TraceEvent* queue = nullptr;
  std::int64_t backend_end = -1;
};

std::uint64_t query_id_of(const gv::TraceEvent& e) {
  return static_cast<std::uint64_t>(SpanView::arg(e, "query_id", 0));
}

std::int64_t overlap_ns(std::int64_t s, std::int64_t e, const gv::TraceEvent& span) {
  const auto lo = std::max(s, static_cast<std::int64_t>(span.start_ns));
  const auto hi = std::min(e, SpanView::end_ns(span));
  return std::max<std::int64_t>(0, hi - lo);
}

/// Read-phase breakdown: serve.*, sgxsim.* from the serving path and
/// obs.coverage.  Returns the served miss batches (distinct nodes, flush
/// order) for the core replays.
std::vector<std::vector<std::uint32_t>> serve_layer_metrics(
    const PhaseRun& run, const SpanView& spans, const gv::MetricsSnapshot& s0,
    const gv::MetricsSnapshot& s1, Report& out) {
  const std::size_t n = run.size();
  std::vector<double> submit_us, lag_ms;
  submit_us.reserve(n);
  lag_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RequestRecord& r = run.rec[i];
    submit_us.push_back(static_cast<double>(r.ret_ns - r.send_ns) * 1e-3);
    lag_ms.push_back(ns_to_ms(r.send_ns - r.sched_ns));
  }
  out.add("serve.submit_us.p50", quantile(submit_us, 0.5), "us");
  out.add("serve.submit_us.p99", quantile(submit_us, 0.99), "us");
  const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  const double misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
  out.add("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "fraction");
  out.add("serve.coalesced_ratio",
          misses > 0 ? static_cast<double>(s1.coalesced - s0.coalesced) / misses : 0.0,
          "fraction");
  const auto qwait = spans.durations_ms("serve", "queue_wait");
  out.add("serve.queue_wait_ms.p50", quantile(qwait, 0.5), "ms");
  out.add("serve.queue_wait_ms.p99", quantile(qwait, 0.99), "ms");
  const double batches = static_cast<double>(s1.batches - s0.batches);
  out.add("serve.batch_size.mean",
          batches > 0 ? static_cast<double>(s1.completed - s0.completed) / batches : 0.0,
          "requests");
  out.add("serve.batches", batches, "count");

  // A batch's flush span and queue_wait slice carry its first entry's query
  // id, which is also the id in scope when the batch resolves its tokens
  // (RequestRecord::batch_qid).
  auto flushes = spans.find("serve", "batch_flush");
  std::sort(flushes.begin(), flushes.end(),
            [](const auto* a, const auto* b) { return a->start_ns < b->start_ns; });
  std::unordered_map<std::uint64_t, BatchSpans> by_qid;
  std::vector<double> ecall_ms, ecall_modeled_ms, push_ms;
  double flush_wall_s = 0.0, flush_modeled_s = 0.0;
  for (const auto* f : flushes) {
    BatchSpans& b = by_qid[query_id_of(*f)];
    b.flush = f;
    flush_wall_s += static_cast<double>(f->dur_ns) * 1e-9;
    flush_modeled_s += f->modeled_s;
    const auto ecalls = spans.children(*f, "ecall");
    if (!ecalls.empty()) {
      push_ms.push_back(
          static_cast<double>(ecalls.front()->start_ns - f->start_ns) * 1e-6);
    }
    for (const auto* e : ecalls) {
      ecall_ms.push_back(static_cast<double>(e->dur_ns) * 1e-6);
      ecall_modeled_ms.push_back(e->modeled_s * 1e3);
      b.backend_end = std::max(b.backend_end, SpanView::end_ns(*e));
    }
  }
  for (const auto* q : spans.find("serve", "queue_wait")) by_qid[query_id_of(*q)].queue = q;

  // Coverage: for each query, the part of its latency its own batch's
  // queue_wait slice and batch_flush span account for, from its submit's
  // return to its resolution; summed over queries and divided by their
  // summed latency.  Sender lag, the submit call and the whole cache-hit
  // path have no program span and count as uncovered.
  double lat_sum = 0.0, cov_sum = 0.0;
  std::vector<double> resolve_us;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> batch_nodes;
  for (std::size_t i = 0; i < n; ++i) {
    const RequestRecord& r = run.rec[i];
    const std::int64_t done = r.done_ns.load(std::memory_order_acquire);
    if (done == 0 || r.failed) continue;
    lat_sum += static_cast<double>(done - r.sched_ns);
    if (r.inline_hit || r.batch_qid == 0) continue;
    const auto it = by_qid.find(r.batch_qid);
    if (it == by_qid.end()) continue;
    const BatchSpans& b = it->second;
    for (const gv::TraceEvent* e : {b.queue, b.flush}) {
      if (e != nullptr) cov_sum += static_cast<double>(overlap_ns(r.ret_ns, done, *e));
    }
    if (b.backend_end >= 0) {
      resolve_us.push_back(static_cast<double>(done - b.backend_end) * 1e-3);
    }
    batch_nodes[r.batch_qid].push_back(run.plan[i].node);
  }
  out.add("obs.coverage", lat_sum > 0 ? cov_sum / lat_sum : 0.0, "fraction");
  out.add("serve.resolve_us.p50", quantile(resolve_us, 0.5), "us");
  out.add("serve.gen_lag_ms.p99", quantile(lag_ms, 0.99), "ms");
  out.add("sgxsim.ecall_ms.p50", quantile(ecall_ms, 0.5), "ms");
  out.add("sgxsim.push_ms.p50", quantile(push_ms, 0.5), "ms");
  note("serving ecall p50: wall %.3f ms | modeled %.3f ms", quantile(ecall_ms, 0.5),
       quantile(ecall_modeled_ms, 0.5));
  out.add("sgxsim.push_mb_per_batch",
          batches > 0 ? static_cast<double>(s1.bytes_in - s0.bytes_in) / 1e6 / batches
                      : 0.0,
          "MB");
  const double queries = static_cast<double>(std::max<std::size_t>(1, n));
  out.add("sgxsim.ecalls_per_query", static_cast<double>(s1.ecalls - s0.ecalls) / queries,
          "ecalls");
  const double modeled_ms_q = (s1.modeled_seconds - s0.modeled_seconds) * 1e3 / queries;
  out.add("sgxsim.modeled_ms_per_query", modeled_ms_q, "ms");
  out.add("sgxsim.wall_over_modeled",
          flush_modeled_s > 0 ? flush_wall_s / flush_modeled_s : 0.0, "ratio");
  note("batch flush per query: wall %.4f ms | modeled %.4f ms (meter %.4f ms)",
       flush_wall_s * 1e3 / queries, flush_modeled_s * 1e3 / queries, modeled_ms_q);

  // Served batches for the replays: each flush's distinct miss nodes
  // (coalesced requests share their entry).
  std::vector<std::vector<std::uint32_t>> out_batches;
  for (const auto* f : flushes) {
    const auto it = batch_nodes.find(query_id_of(*f));
    if (it == batch_nodes.end()) continue;
    auto& nodes = it->second;
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    out_batches.push_back(std::move(nodes));
  }
  return out_batches;
}

/// Self time per frame (folded_profile) next to each frame's span wall and
/// modeled totals.
void print_stage_table(const SpanView& spans) {
  const auto self = folded_self_ns(spans.events());
  note("%-44s %12s %12s %12s", "stage (category/name)", "self ms", "span ms",
       "modeled ms");
  for (const auto& [frame, ns] : self) {
    const auto slash = frame.rfind('/');
    double span_ms = 0.0, modeled_ms = 0.0;
    for (const auto& e : spans.events()) {
      if (e.async || slash == std::string::npos) continue;
      if (frame.compare(slash + 1, std::string::npos, e.name) != 0) continue;
      if (frame.compare(0, slash, e.category) != 0) continue;
      span_ms += static_cast<double>(e.dur_ns) * 1e-6;
      modeled_ms += e.modeled_s * 1e3;
    }
    note("%-44s %12.3f %12.3f %12.3f", frame.c_str(), ns * 1e-6, span_ms, modeled_ms);
  }
}

/// Chrome trace and folded profile of the traced window, written once the
/// measurement is over.
void write_artifacts(const RunConfig& cfg) {
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed);
  gv::TraceRecorder::instance().write_chrome_json(stem + ".trace.json");
  gv::write_folded(stem + ".folded");
  note("trace artifacts: %s.trace.json, %s.folded", stem.c_str(), stem.c_str());
}

/// Turn tracing on over a clean recorder.
void trace_begin() {
  auto& rec = gv::TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
}

/// Turn tracing off and hand back the window's spans; a window that lost
/// spans to ring wrap-around fails the run.
std::vector<gv::TraceEvent> trace_end() {
  auto& rec = gv::TraceRecorder::instance();
  rec.set_enabled(false);
  if (rec.dropped() != 0) {
    throw std::runtime_error("trace ring dropped " + std::to_string(rec.dropped()) +
                             " spans");
  }
  return rec.snapshot();
}

void setup_layer_metrics(const SetupTimes& t, double knn_s, double partition_ms,
                         Report& out) {
  out.add("core.train_s", median(t.train_s), "s");
  out.add("core.provision_ms", median(t.provision_ms), "ms");
  out.add("graph.knn_s", knn_s, "s");
  out.add("graph.partition_ms", partition_ms, "ms");
  out.add("data.synth_s", median(t.synth_s), "s");
}

/// `peak_rss_mb` is the peak through set-up and the nominal phase, read
/// before the max-rate ladder, whose overloaded rung grows the serving
/// pools by however far it overshoots.  The tail is gated at p95: p99
/// (printed) follows the host's speed too closely to hold a bound.
void end_to_end_metrics(const SetupTimes& t, const PhaseStats& nominal, double max_rate,
                        double cpu_s, double peak_rss_mb, double accuracy, Report& out) {
  note("nominal phase: %zu samples, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms",
       nominal.lat_ms.size(), quantile(nominal.lat_ms, 0.90), nominal.p95, nominal.p99);
  out.add("setup_s", median(t.total_s), "s");
  out.add("query_p50_ms", nominal.p50, "ms");
  out.add("query_p95_ms", nominal.p95, "ms");
  out.add("max_rate_rps", max_rate, "req/s");
  out.add("cpu_ms_per_query",
          cpu_s * 1e3 / std::max<double>(1.0, static_cast<double>(nominal.lat_ms.size())),
          "ms");
  out.add("peak_rss_mb", peak_rss_mb, "MB");
  out.add("test_accuracy", accuracy, "fraction");
}

/// Closed-loop warm-up reads (not timed), checked like every other read.
Tally warm_reads(gv::VaultServer& srv, const NodeSampler& nodes, SeededRng& rng,
                 const CheckFn& check) {
  Tally t;
  std::vector<std::uint32_t> chunk(64);
  for (std::size_t done = 0; done < kWarmReads; done += chunk.size()) {
    for (auto& v : chunk) v = nodes.sample(rng);
    gv::SubmitBatch b = srv.submit_many(chunk);
    srv.flush();
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      ++t.attempted;
      try {
        if (!check(chunk[i], b[i].get())) ++t.wrong;
      } catch (const std::exception&) {
        ++t.failed;
      }
    }
  }
  return t;
}

/// A compact K = 4 fleet run on the workload's own graph (closed-loop reads
/// between two passes of kFleetPattern), so the traced run measures the
/// shard layer too.
void fleet_probe(const gv::Dataset& ds, const gv::TrainedVault& vault,
                 const gv::ShardPlan& plan, std::uint64_t seed, Report& out,
                 Tally& tally) {
  std::vector<OpKind> kinds;
  for (int pass = 0; pass < 2; ++pass) {
    kinds.insert(kinds.end(), kFleetPattern.begin(), kFleetPattern.end());
  }
  FleetScenario fs(ds, vault, plan, kinds, seed);
  fs.adopt(make_fleet_server(ds, vault, plan, kWorkers));
  SeededRng rng(seed ^ 0xf1ee7b0bu);
  tally.add(fs.probe_reads(512, rng));
  trace_begin();
  const gv::MetricsSnapshot s0 = fs.server().stats();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    tally.add(fs.probe_reads(256, rng));
    fs.run_op(i);
  }
  tally.add(fs.probe_reads(256, rng));
  const gv::MetricsSnapshot s1 = fs.server().stats();
  const SpanView spans(trace_end());
  fs.layer_metrics(spans, s0, s1, out);
  tally.add(fs.tally());
  fs.shutdown();
}

void run_single(const RunConfig& cfg, gv::DatasetId id, double zipf_s,
                Report& out, Tally& tally) {
  const gv::VaultTrainConfig tc = train_config(id, cfg);
  gv::ServerConfig sc;
  sc.worker_threads = kWorkers;
  SetupTimes times;
  gv::Dataset ds;
  gv::TrainedVault vault;
  std::vector<std::uint32_t> oracle;
  // Declared before the server: pending callbacks write into these records
  // until the server is gone.
  std::vector<std::unique_ptr<PhaseRun>> phases;
  std::unique_ptr<gv::VaultServer> srv;
  std::uint32_t first_label = 0;
  for (int r = 0; r < kSetups; ++r) {
    // Drop the previous set-up first, so peak_rss_mb counts one copy.
    srv.reset();
    ds = gv::Dataset{};
    vault = gv::TrainedVault{};
    const std::int64_t t0 = now_ns();
    ds = gv::load_dataset(id, kDatasetSeed, cfg.scale);
    const std::int64_t t1 = now_ns();
    vault = gv::train_vault(ds, tc);
    const std::int64_t t2 = now_ns();
    // Oracle labels, before the vault reaches a server.
    oracle = vault.predict_rectified(ds.features);
    const std::int64_t t3 = now_ns();
    srv = std::make_unique<gv::VaultServer>(ds, vault, gv::DeploymentOptions{}, sc);
    gv::SubmitToken first = srv->submit(0);  // first backbone pass
    srv->flush();
    first_label = first.get();
    const std::int64_t t4 = now_ns();
    times.synth_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    times.train_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    times.provision_ms.push_back(ns_to_ms(t4 - t3));
    times.total_s.push_back(static_cast<double>((t2 - t0) + (t4 - t3)) * 1e-9);
    note("setup %d: synth %.3f s, train %.3f s, provision %.1f ms", r,
         times.synth_s.back(), times.train_s.back(), times.provision_ms.back());
  }
  ++tally.attempted;
  if (first_label != oracle[0]) ++tally.wrong;
  note("test accuracy %.4f (backbone %.4f)", vault.rectifier_test_accuracy,
       vault.backbone_test_accuracy);

  // The nominal phase's inputs, from the seed, before timing.
  const NodeSampler nodes(ds.num_nodes(), zipf_s, kDatasetSeed ^ 0x5a3dull);
  SeededRng rng(cfg.seed ^ 0x10adull);
  const std::vector<Arrival> nominal =
      poisson_schedule(nodes, cfg.rate_rps, cfg.seconds * kNominalShare, rng);
  const CheckFn check = [&](std::uint32_t node, std::uint32_t label) {
    return label == oracle[node];
  };
  const SubmitFn submit = [&](std::uint32_t node) { return srv->submit(node); };
  tally.add(warm_reads(*srv, nodes, rng, check));
  phases.push_back(run_open_loop(poisson_schedule(nodes, cfg.rate_rps, kWarmSeconds, rng),
                                 submit, now_ns() + 2'000'000, 30.0));
  tally.add(analyze(*phases.back(), check).tally);

  if (!cfg.trace) {
    phases.push_back(run_open_loop(nominal, submit, now_ns() + 2'000'000, 30.0));
    const PhaseStats st = analyze(*phases.back(), check);
    const double cpu_s = phases.back()->cpu_s;
    const double rss_mb = peak_rss_mb();
    tally.add(st.tally);
    const double max_rate = climb_ladder(cfg, nodes, rng, submit, check, tally, phases);
    end_to_end_metrics(times, st, max_rate, cpu_s, rss_mb, vault.rectifier_test_accuracy,
                       out);
    srv.reset();
    return;
  }

  // Traced run: the nominal phase untraced, then again traced.
  phases.push_back(run_open_loop(nominal, submit, now_ns() + 2'000'000, 30.0));
  const PhaseStats untraced = analyze(*phases.back(), check);
  tally.add(untraced.tally);
  trace_begin();
  const gv::MetricsSnapshot s0 = srv->stats();
  phases.push_back(run_open_loop(nominal, submit, now_ns() + 2'000'000, 30.0));
  const gv::MetricsSnapshot s1 = srv->stats();
  const SpanView spans(trace_end());
  const PhaseRun& traced_run = *phases.back();
  const PhaseStats traced = analyze(traced_run, check);
  tally.add(traced.tally);
  const auto batches = serve_layer_metrics(traced_run, spans, s0, s1, out);
  print_stage_table(spans);
  write_artifacts(cfg);
  out.add("obs.trace_overhead_pct",
          untraced.p50 > 0 ? (traced.p50 - untraced.p50) / untraced.p50 * 100.0 : 0.0,
          "%");
  srv.reset();

  std::vector<std::uint32_t> probed;
  probed.reserve(traced_run.size());
  for (const auto& a : traced_run.plan) probed.push_back(a.node);
  out.add("serve.digest_us.p50", digest_us_p50(ds.features, probed), "us");
  core_replays(ds, vault, batches, out);
  tensor_replays(ds, vault, out);
  const std::int64_t p0 = now_ns();
  const gv::ShardPlan plan = gv::ShardPlanner::plan(ds, vault, FleetScenario::kShards);
  const double partition_ms = ns_to_ms(now_ns() - p0);
  setup_layer_metrics(times, knn_replay_s(ds), partition_ms, out);
  fleet_probe(ds, vault, plan, cfg.seed, out, tally);
}

}  // namespace

void run_workload(const RunConfig& cfg, Report& out, Tally& tally) {
  if (cfg.workload == "cora-hot") {
    run_single(cfg, gv::DatasetId::kCora, 1.1, out, tally);
  } else if (cfg.workload == "pubmed-miss") {
    run_single(cfg, gv::DatasetId::kPubmed, 0.0, out, tally);
  } else {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }
}

}  // namespace vb
