// Serving throughput: batched vs. unbatched ecalls, plus JobServe QoS.
//
// Sweeps the micro-batch size and reports modeled requests/sec (the SGX
// cost model charges ECALL transitions, MEE-encrypted copies, and paging as
// modeled seconds, so that is the time batching actually removes; wall time
// is reported alongside).  batch=1 is the unbatched baseline: every request
// pays a full embedding push plus one enclave transition.  The sweep calls
// VaultDeployment::infer_labels_batched one-shot (generation 0) on purpose:
// every batch pushes the embeddings, so the table isolates what batching
// alone saves (VaultServer pushes them once per feature snapshot).  A
// second table runs the end-to-end VaultServer (micro-batch queue +
// work-stealing JobSystem workers + LRU cache) under a mixed workload:
// interactive query latency is measured with and without a saturating
// MAINTENANCE flood on the same workers, which is exactly the starvation
// the job system's maintenance in-flight cap exists to prevent.  Headline
// scalars:
//
//   interactive_p99_clean_ms   client-observed p99, no background work
//   interactive_p99_mixed_ms   client-observed p99 under the flood
//   interactive_p99_ratio      mixed / clean (the QoS claim: bounded, ~<2x)
//   allocs_per_warm_lookup     heap allocations per warm cache-hit lookup,
//                              counted with a global operator-new hook — the
//                              JobServe zero-allocation claim, exactly 0
//   allocs_per_warm_miss       the same count per warm miss on a
//                              default-config front end (eager batching)
//                              with the cache off, over a backend answering
//                              from a label table: the queue, drain jobs,
//                              job system and tokens allocate nothing, 0
//
// Honors the usual knobs (GNNVAULT_BENCH_FAST, GNNVAULT_SEED,
// GNNVAULT_SCALE) plus GNNVAULT_SERVE_REQUESTS (default 512).
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "serve/serve_frontend.hpp"
#include "serve/vault_server.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Global hook: operator new[] and the nothrow variants funnel through this
// overload, so one counter observes every heap allocation in the process.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace gv;
using namespace gv::bench;

namespace {

/// Answers from a label table computed up front, so a warm-miss allocation
/// count covers the serving machinery alone, not the enclave call behind it.
class TableBackend : public ServeBackend {
 public:
  explicit TableBackend(std::vector<std::uint32_t> labels)
      : labels_(std::move(labels)) {}

  Sha256Digest row_digest(std::uint32_t) const override { return {}; }

  BatchResult execute(std::span<const std::uint32_t> nodes,
                      std::span<std::uint32_t> labels,
                      std::span<Sha256Digest>) override {
    for (std::size_t i = 0; i < nodes.size(); ++i) labels[i] = labels_[nodes[i]];
    return {};
  }

  double modeled_seconds_total() const override { return 0.0; }

 private:
  std::vector<std::uint32_t> labels_;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Drive `server` with `kClients` synchronous client threads; under
/// `flood`, a feeder keeps the maintenance lanes saturated the whole time.
/// Returns client-observed per-query latencies (ms).
std::vector<double> run_interactive_scenario(
    VaultServer& server, const std::vector<std::uint32_t>& workload,
    bool flood, std::uint64_t* maintenance_done) {
  std::atomic<bool> done{false};
  // Shared with the flood jobs: those still queued when the clients finish
  // run after this function returns, so they must not point into its frame.
  const auto maintenance = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::thread feeder;
  if (flood) {
    feeder = std::thread([&] {
      while (!done.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 32; ++i) {
          // Maintenance work holds a worker without burning the CPU (real
          // sweeps are EPC-paging / IO bound): what the flood tests is the
          // cap keeping workers FREE, not core contention.
          server.front_end().post_background(
              JobClass::kMaintenance, [maintenance] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                maintenance->fetch_add(1, std::memory_order_relaxed);
              });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  constexpr std::size_t kClients = 4;
  const std::size_t per_client = std::max<std::size_t>(1, workload.size() / kClients);
  std::vector<double> lat[kClients];
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      lat[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::uint32_t node =
            workload[(c * per_client + i) % workload.size()];
        Stopwatch t;
        server.query(node);
        lat[c].push_back(t.seconds() * 1e3);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  if (feeder.joinable()) feeder.join();

  *maintenance_done = maintenance->load();
  std::vector<double> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  const BenchSettings s = settings();
  const double scale = bench_fast_mode() ? s.scale : (s.scale < 1.0 ? s.scale : 0.5);
  const Dataset ds = load_dataset(DatasetId::kCora, s.seed, scale);
  GV_LOG_INFO << "serve_throughput: " << ds.name << " n=" << ds.num_nodes();

  VaultTrainConfig cfg = vault_config(DatasetId::kCora, s);
  TrainedVault vault = train_vault(ds, cfg);

  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("GNNVAULT_SERVE_REQUESTS", 512)));
  Rng rng(s.seed ^ 0x5e7e5e7eull);
  std::vector<std::uint32_t> workload(requests);
  for (auto& v : workload) {
    v = static_cast<std::uint32_t>(rng.uniform_index(ds.num_nodes()));
  }

  VaultDeployment dep(ds, std::move(vault), {});
  const auto outputs = dep.run_backbone(ds.features);

  Table table("Serving throughput vs. micro-batch size (batch=1 = unbatched)");
  table.set_header({"batch", "ecalls", "MB in", "modeled s", "wall s",
                    "req/s (modeled)", "speedup"});

  double baseline_rps = 0.0;
  for (const std::size_t batch : {1, 2, 4, 8, 16, 32, 64}) {
    dep.reset_meter();
    Stopwatch wall;
    for (std::size_t off = 0; off < workload.size(); off += batch) {
      const std::size_t take = std::min(batch, workload.size() - off);
      dep.infer_labels_batched(
          outputs, std::span<const std::uint32_t>(workload.data() + off, take));
    }
    const double wall_s = wall.seconds();
    const CostMeter& m = dep.meter();
    const double modeled_s = m.total_seconds(dep.cost_model());
    const double rps = static_cast<double>(requests) / modeled_s;
    if (batch == 1) baseline_rps = rps;
    table.add_row({std::to_string(batch), std::to_string(m.ecalls),
                   Table::fmt(m.bytes_in / (1024.0 * 1024.0), 1),
                   Table::fmt(modeled_s, 4), Table::fmt(wall_s, 3),
                   Table::fmt(rps, 0), Table::fmt(rps / baseline_rps, 2) + "x"});
  }
  table.print();
  table.write_csv(out_dir() + "/serve_throughput.csv");

  // End-to-end server: queue + JobSystem workers + cache, same workload;
  // afterwards, count heap allocations across warm cache-hit lookups.
  double allocs_per_warm_lookup = 0.0;
  {
    TrainedVault vault2 = train_vault(ds, cfg);
    ServerConfig scfg;
    scfg.max_batch = 32;
    scfg.max_wait = std::chrono::microseconds(500);
    scfg.worker_threads = 2;
    VaultServer server(ds, std::move(vault2), {}, scfg);
    Stopwatch wall;
    SubmitBatch futs = server.submit_many(workload);
    server.flush();
    for (auto& f : futs) f.get();
    const auto snap = server.stats();
    GV_LOG_INFO << "VaultServer end-to-end (" << wall.seconds() << " s wall): "
                << snap.summary();

    // Zero-allocation claim: after warm-up, a cache-hit lookup never
    // touches the heap (inline-ready token, no promise, no queue slot).
    const std::uint32_t hot = workload[0];
    for (int i = 0; i < 256; ++i) server.query(hot);
    constexpr int kWarmLookups = 4096;
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < kWarmLookups; ++i) server.query(hot);
    const std::uint64_t delta =
        g_allocs.load(std::memory_order_relaxed) - before;
    allocs_per_warm_lookup = static_cast<double>(delta) / kWarmLookups;
  }

  // Zero-allocation miss path: default ServerConfig (a batch is cut as soon
  // as a worker is free) with the cache off, so every warm lookup goes
  // queue -> drain job -> backend -> token.
  double allocs_per_warm_miss = 0.0;
  {
    TableBackend backend(dep.infer_labels(ds.features));
    ServerConfig mcfg;
    mcfg.cache_capacity = 0;
    ServeFrontEnd fe(backend, mcfg, ds.num_nodes());
    for (int i = 0; i < 256; ++i) fe.query(workload[i % workload.size()]);
    constexpr int kWarmMisses = 4096;
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < kWarmMisses; ++i) fe.query(workload[i % workload.size()]);
    const std::uint64_t delta =
        g_allocs.load(std::memory_order_relaxed) - before;
    allocs_per_warm_miss = static_cast<double>(delta) / kWarmMisses;
  }

  // Tenant QoS: interactive p99 with the maintenance lanes saturated must
  // stay within a small factor of the maintenance-free p99 (the in-flight
  // cap keeps workers available; a FIFO pool would serialize behind the
  // flood).  Cache off so every query exercises the full flush path.
  Table qos("JobServe QoS: interactive latency vs. a maintenance flood");
  qos.set_header(
      {"scenario", "requests", "p50 ms", "p99 ms", "maintenance done"});
  double p99_clean = 0.0;
  double p99_mixed = 0.0;
  {
    TrainedVault vault3 = train_vault(ds, cfg);
    ServerConfig scfg;
    scfg.max_batch = 16;
    scfg.max_wait = std::chrono::microseconds(200);
    scfg.worker_threads = 4;
    scfg.cache_capacity = 0;
    // Latency-sensitive tenant setting: one maintenance job in flight at a
    // time, three workers always free for interactive flushes.
    scfg.max_maintenance_in_flight = 1;
    scfg.shutdown_drain = std::chrono::milliseconds(0);  // shed flood at exit
    VaultServer server(ds, std::move(vault3), {}, scfg);

    std::uint64_t maint_clean = 0;
    auto clean = run_interactive_scenario(server, workload,
                                          /*flood=*/false, &maint_clean);
    std::uint64_t maint_mixed = 0;
    auto mixed = run_interactive_scenario(server, workload,
                                          /*flood=*/true, &maint_mixed);
    p99_clean = percentile(clean, 0.99);
    p99_mixed = percentile(mixed, 0.99);
    qos.add_row({"clean", std::to_string(clean.size()),
                 Table::fmt(percentile(clean, 0.5), 3),
                 Table::fmt(p99_clean, 3), std::to_string(maint_clean)});
    qos.add_row({"mixed", std::to_string(mixed.size()),
                 Table::fmt(percentile(mixed, 0.5), 3),
                 Table::fmt(p99_mixed, 3), std::to_string(maint_mixed)});
  }
  qos.print();
  qos.write_csv(out_dir() + "/serve_qos.csv");

  const double ratio = p99_clean > 0.0 ? p99_mixed / p99_clean : 0.0;
  GV_LOG_INFO << "JobServe QoS: interactive p99 clean=" << p99_clean
              << " ms, mixed=" << p99_mixed << " ms (ratio " << ratio
              << "), allocs/warm lookup=" << allocs_per_warm_lookup
              << ", allocs/warm miss=" << allocs_per_warm_miss;

  write_json(args, "serve_throughput", s, {&table, &qos},
             {{"interactive_p99_clean_ms", p99_clean},
              {"interactive_p99_mixed_ms", p99_mixed},
              {"interactive_p99_ratio", ratio},
              {"allocs_per_warm_lookup", allocs_per_warm_lookup},
              {"allocs_per_warm_miss", allocs_per_warm_miss}});
  return 0;
}
