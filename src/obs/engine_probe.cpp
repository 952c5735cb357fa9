#include "obs/engine_probe.hpp"

#include <mutex>
#include <sstream>

#include "common/json.hpp"
#include "serve/batch_queue.hpp"
#include "serve/submit_token.hpp"

namespace gv {

namespace {

constexpr const char* kLaneNames[kNumJobClasses] = {"interactive", "cold",
                                                    "maintenance"};

// Process-wide live-probe set for pull_all()/engines_json().  A plain
// std::mutex (outside the rank table) ordered strictly before any probe
// mutex; never taken from engine code.
std::mutex& probes_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<EngineProbe*>& probes() {
  static std::vector<EngineProbe*> v;
  return v;
}

}  // namespace

EngineProbe::EngineProbe(MetricsRegistry& reg, const std::string& engine)
    : reg_(reg), engine_(engine) {
  std::lock_guard<std::mutex> lock(probes_mu());
  probes().push_back(this);
}

EngineProbe::~EngineProbe() {
  std::lock_guard<std::mutex> lock(probes_mu());
  auto& v = probes();
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (*it == this) {
      v.erase(it);
      break;
    }
  }
}

void EngineProbe::attach(const JobSystem* jobs, const TokenPool* tokens,
                         const MicroBatchQueue* queue) {
  // Taking pull_mu_ (not just mu_) makes attach a barrier against pull():
  // once attach(nullptr, ...) returns, no pull is still reading the old
  // engine objects, so the caller may safely destroy them.
  std::lock_guard<std::mutex> pull_lock(pull_mu_);
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  jobs_ = jobs;
  tokens_ = tokens;
  queue_ = queue;
}

void EngineProbe::resolve_scalars_locked() {
  if (scalars_resolved_) return;
  const MetricLabels eng = MetricLabels::of("engine", engine_);
  steals_hit_ = &reg_.counter(
      "jobs.steals", MetricLabels{{"engine", engine_}, {"result", "hit"}});
  steals_miss_ = &reg_.counter(
      "jobs.steals", MetricLabels{{"engine", engine_}, {"result", "miss"}});
  maint_cap_ = &reg_.gauge("jobs.maintenance_cap", eng);
  maint_in_flight_ = &reg_.gauge("jobs.maintenance_in_flight", eng);
  maint_hw_ = &reg_.gauge("jobs.maintenance_high_water", eng);
  tokens_capacity_ = &reg_.gauge("tokens.capacity", eng);
  tokens_free_ = &reg_.gauge("tokens.free", eng);
  tokens_in_use_ = &reg_.gauge("tokens.in_use", eng);
  tokens_chunks_ = &reg_.gauge("tokens.chunks", eng);
  arena_retained_ = &reg_.gauge("arena.retained_bytes", eng);
  arena_blocks_ = &reg_.gauge("arena.blocks", eng);
  arena_hw_ = &reg_.gauge("arena.high_water_bytes", eng);
  queue_depth_hw_ = &reg_.gauge("queue.depth_high_water", eng);
  queue_slots_ = &reg_.gauge("queue.slots", eng);
  queue_free_slots_ = &reg_.gauge("queue.free_slots", eng);
  queue_index_ = &reg_.gauge("queue.index_size", eng);
  scalars_resolved_ = true;
}

void EngineProbe::resolve_worker_locked(std::size_t i) {
  while (worker_instruments_.size() <= i) {
    const std::string w = std::to_string(worker_instruments_.size());
    WorkerInstruments ins;
    for (std::size_t c = 0; c < kNumJobClasses; ++c) {
      const MetricLabels lane{
          {"engine", engine_}, {"worker", w}, {"lane", kLaneNames[c]}};
      ins.executed[c] = &reg_.counter("jobs.executed", lane);
      ins.depth[c] = &reg_.gauge("jobs.depth", lane);
      ins.depth_hw[c] = &reg_.gauge("jobs.depth_high_water", lane);
    }
    const MetricLabels wl{{"engine", engine_}, {"worker", w}};
    ins.parks = &reg_.counter("jobs.parks", wl);
    ins.unparks = &reg_.counter("jobs.unparks", wl);
    worker_instruments_.push_back(ins);
    worker_prev_.emplace_back();
  }
}

void EngineProbe::publish_token_pool(std::size_t capacity,
                                     std::size_t free_count,
                                     std::size_t chunks) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  resolve_scalars_locked();
  tokens_capacity_->set(static_cast<double>(capacity));
  tokens_free_->set(static_cast<double>(free_count));
  tokens_in_use_->set(static_cast<double>(capacity - free_count));
  tokens_chunks_->set(static_cast<double>(chunks));
}

void EngineProbe::add_arena_delta(double retained_bytes, double blocks,
                                  double high_water_bytes) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  resolve_scalars_locked();
  if (retained_bytes != 0.0) arena_retained_->add(retained_bytes);
  if (blocks != 0.0) arena_blocks_->add(blocks);
  if (high_water_bytes != 0.0) arena_hw_->add(high_water_bytes);
}

void EngineProbe::pull() {
  // One pull at a time, gather THROUGH fold: interleaved pulls could fold
  // an older worker snapshot after a newer one already advanced prev_*,
  // underflowing the unsigned deltas fed to the monotone counters.
  // Holding pull_mu_ across the engine-state reads also lets attach()
  // synchronize teardown (see attach()).
  std::lock_guard<std::mutex> pull_lock(pull_mu_);
  // Gather engine state BEFORE taking mu_: the accessors below acquire
  // kJobQueue/kTokenState/kQueue locks, all of which rank below the probe's
  // kTelemetry mutex.
  const JobSystem* jobs = nullptr;
  const TokenPool* tokens = nullptr;
  const MicroBatchQueue* queue = nullptr;
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    jobs = jobs_;
    tokens = tokens_;
    queue = queue_;
  }

  std::vector<JobWorkerSnapshot> snaps;
  std::size_t maint_cap = 0, maint_in_flight = 0, maint_hw = 0;
  if (jobs != nullptr) {
    snaps = jobs->worker_snapshots();
    maint_cap = jobs->max_maintenance_in_flight();
    maint_in_flight = jobs->maintenance_in_flight();
    maint_hw = jobs->maintenance_high_water();
  }
  std::size_t tok_capacity = 0, tok_free = 0, tok_chunks = 0;
  if (tokens != nullptr) {
    tok_capacity = tokens->capacity();
    tok_free = tokens->free_count();
    tok_chunks = tokens->num_chunks();
  }
  std::size_t q_depth_hw = 0, q_slots = 0, q_free = 0, q_index = 0;
  if (queue != nullptr) {
    q_depth_hw = queue->depth_high_water();
    q_slots = queue->slot_capacity();
    q_free = queue->free_slots();
    q_index = queue->index_size();
  }

  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  resolve_scalars_locked();

  std::uint64_t exec_total[kNumJobClasses] = {0, 0, 0};
  std::uint64_t hits = 0, misses = 0, parks = 0, unparks = 0;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    resolve_worker_locked(i);
    WorkerInstruments& ins = worker_instruments_[i];
    WorkerPrev& prev = worker_prev_[i];
    const JobWorkerSnapshot& s = snaps[i];
    for (std::size_t c = 0; c < kNumJobClasses; ++c) {
      ins.executed[c]->add(s.executed[c] - prev.executed[c]);
      prev.executed[c] = s.executed[c];
      ins.depth[c]->set(static_cast<double>(s.depth[c]));
      ins.depth_hw[c]->set(static_cast<double>(s.depth_high_water[c]));
      exec_total[c] += s.executed[c];
    }
    ins.parks->add(s.parks - prev.parks);
    ins.unparks->add(s.unparks - prev.unparks);
    prev.parks = s.parks;
    prev.unparks = s.unparks;
    hits += s.steal_hits;
    misses += s.steal_misses;
    parks += s.parks;
    unparks += s.unparks;
  }
  if (jobs != nullptr) {
    steals_hit_->add(hits - prev_steal_hits_);
    steals_miss_->add(misses - prev_steal_misses_);
    prev_steal_hits_ = hits;
    prev_steal_misses_ = misses;
    maint_cap_->set(static_cast<double>(maint_cap));
    maint_in_flight_->set(static_cast<double>(maint_in_flight));
    maint_hw_->set(static_cast<double>(maint_hw));
  }
  if (tokens != nullptr) {
    tokens_capacity_->set(static_cast<double>(tok_capacity));
    tokens_free_->set(static_cast<double>(tok_free));
    tokens_in_use_->set(static_cast<double>(tok_capacity - tok_free));
    tokens_chunks_->set(static_cast<double>(tok_chunks));
  }
  if (queue != nullptr) {
    queue_depth_hw_->set(static_cast<double>(q_depth_hw));
    queue_slots_->set(static_cast<double>(q_slots));
    queue_free_slots_->set(static_cast<double>(q_free));
    queue_index_->set(static_cast<double>(q_index));
  }

  std::ostringstream os;
  std::string name;
  append_json_string(name, engine_);
  os << "{\"engine\":" << name << ",\"workers\":" << snaps.size()
     << ",\"executed\":{";
  for (std::size_t c = 0; c < kNumJobClasses; ++c) {
    if (c != 0) os << ",";
    os << "\"" << kLaneNames[c] << "\":" << exec_total[c];
  }
  os << "},\"steal_hits\":" << hits << ",\"steal_misses\":" << misses
     << ",\"parks\":" << parks << ",\"unparks\":" << unparks
     << ",\"maintenance\":{\"cap\":" << maint_cap
     << ",\"in_flight\":" << maint_in_flight << ",\"high_water\":" << maint_hw
     << "},\"tokens\":{\"capacity\":" << tok_capacity << ",\"free\":" << tok_free
     << ",\"in_use\":" << (tok_capacity - tok_free)
     << ",\"chunks\":" << tok_chunks
     << "},\"arena\":{\"retained_bytes\":"
     << static_cast<std::uint64_t>(arena_retained_->value())
     << ",\"blocks\":" << static_cast<std::uint64_t>(arena_blocks_->value())
     << ",\"high_water_bytes\":"
     << static_cast<std::uint64_t>(arena_hw_->value())
     << "},\"queue\":{\"depth_high_water\":" << q_depth_hw
     << ",\"slots\":" << q_slots << ",\"free_slots\":" << q_free
     << ",\"index_size\":" << q_index << "}}";
  snapshot_ = os.str();
}

std::string EngineProbe::snapshot_json() {
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    if (!snapshot_.empty()) return snapshot_;
  }
  pull();
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return snapshot_;
}

void EngineProbe::pull_all() {
  std::lock_guard<std::mutex> lock(probes_mu());
  for (EngineProbe* p : probes()) p->pull();
}

std::string EngineProbe::engines_json(bool live) {
  std::lock_guard<std::mutex> lock(probes_mu());
  std::string out = "[";
  bool first = true;
  for (EngineProbe* p : probes()) {
    if (!first) out += ",";
    first = false;
    if (live) p->pull();
    MutexLock plock(p->mu_);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    out += p->snapshot_.empty() ? std::string("{}") : p->snapshot_;
  }
  out += "]";
  return out;
}

}  // namespace gv
