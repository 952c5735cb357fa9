#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.hpp"

namespace gv {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  GV_CHECK(n > 0, "uniform_index requires n > 0");
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    std::uint64_t t = -n % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  GV_CHECK(lo <= hi, "uniform_int requires lo <= hi");
  return lo + static_cast<std::int64_t>(
                  uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::pareto(double alpha, double cap) {
  GV_CHECK(alpha > 0.0, "pareto requires alpha > 0");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return std::min(cap, std::pow(u, -1.0 / alpha));
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  GV_CHECK(k <= n, "cannot sample more elements than the population size");
  // Floyd's algorithm: O(k) expected insertions.
  std::unordered_set<std::uint32_t> chosen;
  chosen.reserve(k * 2);
  std::vector<std::uint32_t> out;
  out.reserve(k);
  for (std::uint32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::uint32_t>(uniform_index(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ull); }

}  // namespace gv
