// Deterministic pseudo-random number generation.
//
// All stochastic pieces of GNNVault (graph generators, weight init, dropout,
// negative-edge samplers) draw from gv::Rng so that every experiment in the
// paper reproduction is bit-reproducible given a seed.  The generator is
// xoshiro256** seeded via SplitMix64, the de-facto standard for fast
// high-quality non-cryptographic randomness.
#pragma once

#include <cstdint>
#include <vector>

namespace gv {

/// SplitMix64 step; used to expand a 64-bit seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Raw 64 random bits. Inline, as are uniform() and bernoulli(): dropout
  /// takes one Bernoulli draw per activation.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <algorithm>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached spare).
  double normal();
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Bernoulli trial: true when uniform() < p.
  bool bernoulli(double p) { return uniform() < p; }
  /// Geometric-ish power-law-ish positive value used by the DC-SBM degree
  /// corrector: Pareto(alpha) clipped to [1, cap].
  double pareto(double alpha, double cap);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (Floyd's algorithm); k <= n.
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n, std::uint32_t k);

  /// Derive an independent child generator (for parallel determinism).
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace gv
