#ifndef SBON_NET_DYNAMICS_H_
#define SBON_NET_DYNAMICS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace sbon::net {

// --- counter-based jitter primitives ---------------------------------------
// Multiplicative latency jitter: every pairwise latency is scaled by a
// per-epoch factor approximately distributed LogNormal(0, sigma), modelling
// transient congestion without rebuilding the topology. Nothing is
// materialized: NetworkFabric stores one epoch seed per congestion epoch and
// derives a pair's factor from (seed, pair index) on every live read, so a
// new epoch costs one Rng draw regardless of n. The factor is a pure
// function of its inputs — deterministic per seed, symmetric (one index per
// unordered pair), and mean-preserving (E[factor] = e^{sigma^2/2}).

/// The i-th output of a SplitMix64 stream seeded with `seed` (0-based). The
/// stream's state is affine in the call index (state_i = seed + (i+1)*gamma),
/// so any factor of an epoch is addressable directly from (seed, i) while
/// matching a sequential walk bit for bit.
inline uint64_t SplitMix64At(uint64_t seed, size_t i) {
  uint64_t z = seed + (static_cast<uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// e^s for the jitter exponent range (|s| <= ~1.8 at the sigmas the library
/// uses): degree-6 Taylor core on s/4, squared twice. Relative error < 1e-5
/// over that range — far below the statistical noise of the jitter itself —
/// at a handful of multiplies instead of a libm call. Exponents outside the
/// envelope (exotic sigma configurations) fall back to libm so the factor
/// distribution stays accurate instead of silently drifting in the tails.
inline double JitterFastExp(double s) {
  if (s < -2.0 || s > 2.0) return std::exp(s);
  const double r = s * 0.25;
  double p =
      1.0 +
      r * (1.0 +
           r * (1.0 / 2 +
                r * (1.0 / 6 +
                     r * (1.0 / 24 + r * (1.0 / 120 + r * (1.0 / 720))))));
  p *= p;
  p *= p;
  return p;
}

/// Upper-triangle (diagonal included) pair index of (a, b) in an n-node
/// overlay: the SplitMix64 counter a pair's jitter factor is drawn from.
/// Requires a <= b.
inline size_t JitterPairIndex(NodeId a, NodeId b, size_t n) {
  return static_cast<size_t>(a) * n -
         static_cast<size_t>(a) * (a + 1) / 2 + b;
}

/// Factor `i` of the congestion epoch seeded by `epoch_seed`: a CLT
/// approximation of LogNormal(0, sigma) expanded from one SplitMix64 output
/// (mean 2, variance 1/3 before standardization; support bounded at
/// +/- 2*sqrt(3) sigma, which keeps factors within the multiplicative bounds
/// downstream consumers assume).
inline double JitterFactorAt(uint64_t epoch_seed, double sigma, size_t i) {
  const uint64_t z = SplitMix64At(epoch_seed, i);
  const double sum = static_cast<double>(z & 0xffff) +
                     static_cast<double>((z >> 16) & 0xffff) +
                     static_cast<double>((z >> 32) & 0xffff) +
                     static_cast<double>(z >> 48);
  const double zn =
      (sum * (1.0 / 65536.0) - 2.0) * 1.7320508075688772;  // * sqrt(3)
  return JitterFastExp(sigma * zn);
}

/// Per-node CPU load as a mean-reverting stochastic process clamped to
/// [0, 1]. Stands in for "node characteristics (such as load) are dynamic"
/// (paper Sec. 1): dL = theta*(mean - L)*dt + sigma*sqrt(dt)*N(0,1).
class LoadModel {
 public:
  struct Params {
    double mean = 0.3;        ///< Long-run mean load.
    double theta = 0.5;       ///< Mean-reversion strength per time unit.
    double sigma = 0.25;      ///< Volatility.
    double hotspot_frac = 0;  ///< Fraction of nodes pinned to high load.
    double hotspot_mean = 0.9;
  };

  /// Initializes `n` nodes with loads drawn around the mean; `hotspot_frac`
  /// of them revert to `hotspot_mean` instead (the paper's "overloaded node
  /// a" exemplars in Figure 2).
  LoadModel(size_t n, const Params& params, Rng* rng);

  /// Advances every node by `dt` time units.
  void Step(double dt, Rng* rng);

  double load(NodeId n) const { return load_[n]; }
  const std::vector<double>& loads() const { return load_; }
  /// Directly sets a node's load (tests / scripted scenarios).
  void SetLoad(NodeId n, double load);

  size_t NumNodes() const { return load_.size(); }

 private:
  Params params_;
  std::vector<double> load_;
  std::vector<bool> hotspot_;
};

}  // namespace sbon::net

#endif  // SBON_NET_DYNAMICS_H_
