#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace adaparse::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Zipf weights pow(r + 1, -s) for r < n, and their sum in index order.
struct ZipfTable {
  std::size_t n = 0;
  double s = 0.0;
  std::vector<double> weights;
  double total = 0.0;
};

/// The calling thread's table for (n, s). The reference is valid until the
/// thread's next call.
const ZipfTable& zipf_table(std::size_t n, double s) {
  // Callers draw from a handful of (n, s) pairs, so a linear scan is enough.
  thread_local std::vector<ZipfTable> tables;
  for (const ZipfTable& table : tables) {
    if (table.n == n && table.s == s) return table;
  }
  ZipfTable& table = tables.emplace_back();
  table.n = n;
  table.s = s;
  table.weights.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    table.weights[r] = std::pow(r + 1.0, -s);
    table.total += table.weights[r];
  }
  return table;
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t stream_id) {
  return Rng(mix64(next_u64(), stream_id));
}

std::uint64_t Rng::next_u64() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded draw (rejection keeps uniformity).
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::size_t Rng::zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("zipf: n must be > 0");
  // Small n: inverse-CDF walk over the explicit weights, cached per (n, s)
  // and per thread. The walk sums and subtracts in the same order as a
  // fresh computation would, so draws are bit-identical to it.
  if (n <= 4096) {
    const ZipfTable& table = zipf_table(n, s);
    double u = uniform() * table.total;
    for (std::size_t r = 0; r < n; ++r) {
      u -= table.weights[r];
      if (u <= 0.0) return r;
    }
    return n - 1;
  }
  // Rejection sampling (Devroye) for the general case.
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0)));
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b && x <= static_cast<double>(n)) {
      return static_cast<std::size_t>(x) - 1;
    }
  }
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("categorical: empty weights");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("categorical: weights sum to zero");
  }
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::uint64_t hash64(std::string_view s) {
  std::uint64_t h = kFnvOffsetBasis;
  for (unsigned char c : s) {
    h = fnv1a_step(h, c);
  }
  return h;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  return splitmix64(state);
}

}  // namespace adaparse::util
