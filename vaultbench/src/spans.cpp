#include "spans.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "obs/profile_export.hpp"

namespace vb {

namespace {

bool same(const char* a, const char* b) {
  return a != nullptr && b != nullptr && std::strcmp(a, b) == 0;
}

}  // namespace

SpanView::SpanView(std::vector<gv::TraceEvent> events) : ev_(std::move(events)) {
  for (std::size_t i = 0; i < ev_.size(); ++i) {
    if (ev_[i].async) continue;
    by_tid_[static_cast<int>(arg(ev_[i], "tid", 0))].push_back(i);
  }
  for (auto& [tid, idx] : by_tid_) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return ev_[a].start_ns < ev_[b].start_ns;
    });
  }
}

double SpanView::arg(const gv::TraceEvent& ev, const char* key, double dflt) {
  for (int i = 0; i < ev.num_args; ++i) {
    if (same(ev.args[i].key, key)) return ev.args[i].value;
  }
  return dflt;
}

std::vector<const gv::TraceEvent*> SpanView::find(const char* category,
                                                  const char* name) const {
  std::vector<const gv::TraceEvent*> out;
  for (const auto& e : ev_) {
    if (same(e.name, name) && (category == nullptr || same(e.category, category))) {
      out.push_back(&e);
    }
  }
  return out;
}

std::vector<double> SpanView::durations_ms(const char* category, const char* name,
                                           const char* key, double value) const {
  std::vector<double> out;
  for (const auto* e : find(category, name)) {
    if (key != nullptr && arg(*e, key, -1.0) != value) continue;
    out.push_back(static_cast<double>(e->dur_ns) * 1e-6);
  }
  return out;
}

std::vector<const gv::TraceEvent*> SpanView::children(
    const gv::TraceEvent& parent, const char* name) const {
  std::vector<const gv::TraceEvent*> out;
  const auto it = by_tid_.find(static_cast<int>(arg(parent, "tid", 0)));
  if (it == by_tid_.end()) return out;
  const auto& idx = it->second;
  auto pos = std::lower_bound(idx.begin(), idx.end(), parent.start_ns,
                              [&](std::size_t i, std::uint64_t t) {
                                return ev_[i].start_ns < t;
                              });
  const std::int64_t parent_end = end_ns(parent);
  for (; pos != idx.end() && static_cast<std::int64_t>(ev_[*pos].start_ns) < parent_end;
       ++pos) {
    const auto& e = ev_[*pos];
    if (&e == &parent || !same(e.name, name)) continue;
    if (end_ns(e) <= parent_end) out.push_back(&e);
  }
  return out;
}

std::map<std::string, double> folded_self_ns(
    const std::vector<gv::TraceEvent>& events) {
  std::map<std::string, double> out;
  std::istringstream in(gv::folded_profile(events));
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const auto semi = line.rfind(';', space);
    const std::string leaf =
        line.substr(semi == std::string::npos ? 0 : semi + 1,
                    space - (semi == std::string::npos ? 0 : semi + 1));
    out[leaf] += std::stod(line.substr(space + 1));
  }
  return out;
}

}  // namespace vb
