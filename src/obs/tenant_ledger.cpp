#include "obs/tenant_ledger.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace gv {

namespace {

void append_usage_fields(std::ostringstream& os, const TenantUsage& u) {
  os << std::setprecision(17);
  os << "\"modeled_seconds\":" << u.modeled_seconds
     << ",\"ecalls\":" << u.ecalls << ",\"batches\":" << u.batches
     << ",\"cache_hits\":" << u.cache_hits
     << ",\"cache_misses\":" << u.cache_misses
     << ",\"cold_queries\":" << u.cold_queries
     << ",\"cold_frontier_rows\":" << u.cold_frontier_rows
     << ",\"channel_bytes\":" << u.channel_bytes
     << ",\"channel_padded_bytes\":" << u.channel_padded_bytes
     << ",\"epc_resident_bytes\":" << u.epc_resident_bytes;
}

}  // namespace

TenantUsage& TenantUsage::operator+=(const TenantUsage& o) {
  modeled_seconds += o.modeled_seconds;
  ecalls += o.ecalls;
  batches += o.batches;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cold_queries += o.cold_queries;
  cold_frontier_rows += o.cold_frontier_rows;
  channel_bytes += o.channel_bytes;
  channel_padded_bytes += o.channel_padded_bytes;
  epc_resident_bytes += o.epc_resident_bytes;
  return *this;
}

TenantLedger& TenantLedger::global() {
  static TenantLedger* ledger = new TenantLedger();  // leaked: outlives exit
  return *ledger;
}

void TenantLedger::register_provider(const void* owner, std::string tenant,
                                     Provider fn) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  for (auto& e : entries_) {
    if (e->owner == owner) {
      while (e->pins > 0) call_done_cv_.wait(mu_);
      e->tenant = std::move(tenant);
      e->fn = std::move(fn);
      return;
    }
  }
  auto e = std::make_unique<Entry>();
  e->owner = owner;
  e->tenant = std::move(tenant);
  e->fn = std::move(fn);
  entries_.push_back(std::move(e));
}

void TenantLedger::unregister(const void* owner) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->owner != owner) continue;
    // Snapshots may be mid-call into this entry's provider with the lock
    // dropped (several can pin it at once); the provider reads state the
    // caller is about to destroy, so removal must wait out ALL of them.
    while ((*it)->pins > 0) call_done_cv_.wait(mu_);
    entries_.erase(it);
    return;
  }
}

void TenantLedger::set_epc_bytes(const std::string& tenant,
                                 std::uint64_t bytes) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  epc_bytes_[tenant] = bytes;
}

void TenantLedger::clear_epc_bytes(const std::string& tenant) {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  epc_bytes_.erase(tenant);
}

std::vector<std::pair<std::string, TenantUsage>> TenantLedger::snapshot() {
  // Merge map built outside the lock; each provider is called with the
  // ledger mutex (and its rank scope) fully RELEASED — providers read
  // server state whose locks rank below kTelemetry.
  std::map<std::string, TenantUsage> rows;
  std::size_t i = 0;
  for (;;) {
    Entry* e = nullptr;
    Provider fn;
    std::string tenant;
    {
      MutexLock lock(mu_);
      GV_RANK_SCOPE(lockrank::kTelemetry);
      if (i < entries_.size()) {
        e = entries_[i].get();
        ++e->pins;  // pins the entry: unregister blocks until 0
        fn = e->fn;
        tenant = e->tenant;
      }
    }
    if (e == nullptr) break;
    const TenantUsage usage = fn();
    rows[tenant] += usage;
    {
      MutexLock lock(mu_);
      GV_RANK_SCOPE(lockrank::kTelemetry);
      if (--e->pins == 0) call_done_cv_.notify_all();
      // entries_ may have shifted while unlocked; continue after `e`'s
      // current slot (the pin guarantees it is still present).
      i = entries_.size();
      for (std::size_t j = 0; j < entries_.size(); ++j) {
        if (entries_[j].get() == e) {
          i = j + 1;
          break;
        }
      }
    }
  }
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    for (const auto& [tenant, bytes] : epc_bytes_) {
      rows[tenant].epc_resident_bytes += bytes;
    }
  }

  std::vector<std::pair<std::string, TenantUsage>> out(rows.begin(),
                                                       rows.end());
  TenantUsage fleet;
  for (const auto& [tenant, usage] : out) fleet += usage;
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kTelemetry);
    cached_ = render_json_locked(out, fleet);
  }
  return out;
}

TenantUsage TenantLedger::fleet_totals() {
  TenantUsage fleet;
  for (const auto& [tenant, usage] : snapshot()) fleet += usage;
  return fleet;
}

std::string TenantLedger::render_json_locked(
    const std::vector<std::pair<std::string, TenantUsage>>& rows,
    const TenantUsage& fleet) {
  std::ostringstream os;
  os << "{\"schema\":\"gnnvault.tenant_ledger.v1\",\"tenants\":[";
  bool first = true;
  for (const auto& [tenant, usage] : rows) {
    if (!first) os << ",";
    first = false;
    std::string name;
    append_json_string(name, tenant);
    os << "{\"tenant\":" << name << ",";
    append_usage_fields(os, usage);
    os << "}";
  }
  os << "],\"fleet\":{";
  append_usage_fields(os, fleet);
  os << "}}";
  return os.str();
}

std::string TenantLedger::to_json() {
  snapshot();
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return cached_;
}

std::string TenantLedger::cached_json() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  if (!cached_.empty()) return cached_;
  return "{\"schema\":\"gnnvault.tenant_ledger.v1\",\"tenants\":[],"
         "\"fleet\":{\"modeled_seconds\":0,\"ecalls\":0,\"batches\":0,"
         "\"cache_hits\":0,\"cache_misses\":0,\"cold_queries\":0,"
         "\"cold_frontier_rows\":0,\"channel_bytes\":0,"
         "\"channel_padded_bytes\":0,\"epc_resident_bytes\":0}}";
}

void TenantLedger::publish(MetricsRegistry& reg) {
  const auto rows = snapshot();
  TenantUsage fleet;
  for (const auto& [tenant, usage] : rows) {
    const MetricLabels l = MetricLabels::of("tenant", tenant);
    reg.gauge("tenant.modeled_seconds", l).set(usage.modeled_seconds);
    reg.gauge("tenant.ecalls", l).set(static_cast<double>(usage.ecalls));
    reg.gauge("tenant.batches", l).set(static_cast<double>(usage.batches));
    reg.gauge("tenant.cache_hits", l)
        .set(static_cast<double>(usage.cache_hits));
    reg.gauge("tenant.cache_misses", l)
        .set(static_cast<double>(usage.cache_misses));
    reg.gauge("tenant.cold_queries", l)
        .set(static_cast<double>(usage.cold_queries));
    reg.gauge("tenant.cold_frontier_rows", l)
        .set(static_cast<double>(usage.cold_frontier_rows));
    reg.gauge("tenant.channel_bytes", l)
        .set(static_cast<double>(usage.channel_bytes));
    reg.gauge("tenant.channel_padded_bytes", l)
        .set(static_cast<double>(usage.channel_padded_bytes));
    reg.gauge("tenant.epc_resident_bytes", l)
        .set(static_cast<double>(usage.epc_resident_bytes));
    fleet += usage;
  }
  reg.gauge("fleet.modeled_seconds").set(fleet.modeled_seconds);
  reg.gauge("fleet.ecalls").set(static_cast<double>(fleet.ecalls));
  reg.gauge("fleet.batches").set(static_cast<double>(fleet.batches));
  reg.gauge("fleet.cache_hits").set(static_cast<double>(fleet.cache_hits));
  reg.gauge("fleet.cache_misses").set(static_cast<double>(fleet.cache_misses));
  reg.gauge("fleet.cold_queries").set(static_cast<double>(fleet.cold_queries));
  reg.gauge("fleet.cold_frontier_rows")
      .set(static_cast<double>(fleet.cold_frontier_rows));
  reg.gauge("fleet.channel_bytes")
      .set(static_cast<double>(fleet.channel_bytes));
  reg.gauge("fleet.channel_padded_bytes")
      .set(static_cast<double>(fleet.channel_padded_bytes));
  reg.gauge("fleet.epc_resident_bytes")
      .set(static_cast<double>(fleet.epc_resident_bytes));
}

std::size_t TenantLedger::num_providers() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kTelemetry);
  return entries_.size();
}

}  // namespace gv
