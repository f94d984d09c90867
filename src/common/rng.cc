#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace sbon {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  has_cached_normal_ = false;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

size_t Rng::Poisson(double mean) {
  if (mean <= 0.0) return 0;
  // Poisson(a + b) = Poisson(a) + Poisson(b).
  size_t n = 0;
  while (mean > 500.0) {
    n += Poisson(500.0);
    mean -= 500.0;
  }
  const double floor = std::exp(-mean);
  double product = 1.0;
  size_t k = 0;
  do {
    ++k;
    product *= NextDouble();
  } while (product > floor);
  return n + (k - 1);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Pareto(double xm, double alpha) {
  assert(xm > 0.0 && alpha > 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Floyd's algorithm would avoid the O(n) init, but n is small everywhere
  // this is used; keep the simple reservoir-free version.
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  Shuffle(&all);
  all.resize(k);
  return all;
}

}  // namespace sbon
