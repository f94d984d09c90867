#ifndef SBON_COMMON_RNG_H_
#define SBON_COMMON_RNG_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace sbon {

/// Deterministic pseudo-random number generator (xoshiro256** core seeded via
/// SplitMix64). All stochastic components of the library draw from an `Rng`
/// so that every simulation is reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5bd1e995u) { Seed(seed); }

  /// Re-seeds the generator. Identical seeds give identical streams.
  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Box-Muller with caching).
  double Normal();

  /// Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Exponential variate with the given rate lambda (> 0).
  double Exponential(double lambda);

  /// Poisson variate with the given mean by Knuth's product method; 0,
  /// without a draw, when mean <= 0. Means above 500 are drawn as a sum of
  /// Poisson(500) parts and the remainder, so the exp(-mean) floor never
  /// underflows to 0.
  size_t Poisson(double mean);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Pareto variate with scale xm > 0 and shape alpha > 0 (heavy tail used
  /// for skewed stream rates).
  double Pareto(double xm, double alpha);

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n). Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sbon

#endif  // SBON_COMMON_RNG_H_
