#include "coords/vivaldi.h"

#include <algorithm>
#include <cmath>

namespace sbon::coords {

namespace {

// RunVivaldi's RTT samples per node per round, and the size of each node's
// long-lived neighbor set that every other sample is drawn from.
constexpr size_t kSamplesPerRound = 8;
constexpr size_t kFixedNeighbors = 8;

}  // namespace

VivaldiSystem::VivaldiSystem(size_t num_nodes, const Params& params, Rng* rng)
    : params_(params),
      coords_(params.dims, num_nodes),
      error_(num_nodes, kInitialError) {
  // Start at tiny random offsets so initial forces have direction. Draws
  // are node-major (all dims of node 0, then node 1, ...), the order the
  // per-node Vec layout always consumed the stream in.
  for (size_t n = 0; n < num_nodes; ++n) {
    for (size_t d = 0; d < params_.dims; ++d) {
      coords_.At(d, n) = rng->Uniform(-0.1, 0.1);
    }
  }
}

void VivaldiSystem::Update(NodeId self, NodeId peer, double measured_rtt_ms) {
  UpdateKernel(self, peer, coords_.lane(0) + peer, coords_.stride(),
               error_[peer], measured_rtt_ms);
}

void VivaldiSystem::UpdateAgainst(NodeId self, NodeId peer,
                                  const Vec& peer_coord, double peer_error,
                                  double measured_rtt_ms) {
  UpdateKernel(self, peer, peer_coord.data(), 1, peer_error, measured_rtt_ms);
}

void VivaldiSystem::UpdateKernel(NodeId self, NodeId peer,
                                 const double* peer_base, size_t peer_stride,
                                 double peer_error, double measured_rtt_ms) {
  const double rtt = std::max(measured_rtt_ms, kMinRttMs);
  const size_t dims = params_.dims;
  const size_t stride = coords_.stride();
  double* base = coords_.lane(0) + self;  // self's dim d at base[d * stride]

  // diff = self - peer, in a stack buffer; cost spaces beyond kInlineDims
  // spill to the heap exactly as the Vec-based implementation did.
  double inline_buf[Vec::kInlineDims];
  Vec spill;
  double* diff = inline_buf;
  if (dims > Vec::kInlineDims) {
    spill = Vec(dims);
    diff = spill.data();
  }
  for (size_t d = 0; d < dims; ++d) {
    diff[d] = base[d * stride] - peer_base[d * peer_stride];
  }
  double norm2 = 0.0;
  for (size_t d = 0; d < dims; ++d) norm2 += diff[d] * diff[d];
  const double dist = std::sqrt(norm2);

  // Sample weight balances local vs remote confidence.
  const double w_self = error_[self];
  const double w_peer = peer_error;
  const double w = (w_self + w_peer) > 0.0 ? w_self / (w_self + w_peer) : 0.5;
  // Relative error of this sample.
  const double es = std::abs(dist - rtt) / rtt;
  // Update the local error with an EWMA weighted by confidence.
  error_[self] = es * kCe * w + error_[self] * (1.0 - kCe * w);
  error_[self] = std::clamp(error_[self], 0.0, 10.0);
  // Move along the spring force direction. `dist` is bitwise the norm the
  // historical `diff.Unit(tiebreak)` recomputed internally.
  const double delta = kCc * w;
  const double step = delta * (rtt - dist);
  if (dist > 1e-12) {
    // dir[d] = diff[d] / dist, applied as self[d] += dir[d] * step: the
    // divide-then-multiply rounding of the Vec path, element-independent.
    for (size_t d = 0; d < dims; ++d) {
      base[d * stride] += (diff[d] / dist) * step;
    }
  } else {
    // Deterministic pseudo-random direction for coincident points —
    // Vec::Unit's tiebreak, replicated on the stack buffer.
    const uint64_t tiebreak = static_cast<uint64_t>(self) * 1000003u + peer;
    uint64_t h = tiebreak * 0x9e3779b97f4a7c15ULL + 0x1234567ULL;
    double dir_norm2 = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      const double x =
          static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;  // [-0.5, 0.5)
      diff[d] = x;
      dir_norm2 += x * x;
    }
    if (dir_norm2 < 1e-24 && dims > 0) diff[0] = 1.0;
    double renorm2 = 0.0;
    for (size_t d = 0; d < dims; ++d) renorm2 += diff[d] * diff[d];
    const double n2 = std::sqrt(renorm2);
    if (n2 > 0.0) {
      for (size_t d = 0; d < dims; ++d) diff[d] /= n2;
    }
    for (size_t d = 0; d < dims; ++d) {
      base[d * stride] += diff[d] * step;
    }
  }
}

double VivaldiSystem::Predict(NodeId a, NodeId b) const {
  const double* pa = coords_.lane(0) + a;
  const double* pb = coords_.lane(0) + b;
  const size_t stride = coords_.stride();
  double s = 0.0;
  for (size_t d = 0; d < params_.dims; ++d) {
    const double diff = pa[d * stride] - pb[d * stride];
    s += diff * diff;
  }
  return std::sqrt(s);
}

VivaldiSystem RunVivaldi(const net::LatencyView& lat,
                         const VivaldiSystem::Params& params,
                         const VivaldiRunOptions& options, Rng* rng) {
  const size_t n = lat.NumNodes();
  VivaldiSystem sys(n, params, rng);
  if (n < 2) return sys;

  // Fixed neighbor sets (half the samples), per Vivaldi's recommendation to
  // mix long-lived and random neighbors.
  std::vector<std::vector<NodeId>> fixed(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t k = std::min(kFixedNeighbors, n - 1);
    for (size_t j = 0; j < k; ++j) {
      NodeId peer;
      do {
        peer = static_cast<NodeId>(rng->UniformInt(n));
      } while (peer == i);
      fixed[i].push_back(peer);
    }
  }

  std::vector<NodeId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);

  for (size_t round = 0; round < options.rounds; ++round) {
    rng->Shuffle(&order);
    for (NodeId self : order) {
      for (size_t s = 0; s < kSamplesPerRound; ++s) {
        NodeId peer;
        if (!fixed[self].empty() && s % 2 == 0) {
          peer = fixed[self][rng->UniformInt(fixed[self].size())];
        } else {
          do {
            peer = static_cast<NodeId>(rng->UniformInt(n));
          } while (peer == self);
        }
        double rtt = lat.Latency(self, peer);
        if (!std::isfinite(rtt)) continue;
        if (options.rtt_noise_sigma > 0.0) {
          rtt *= std::exp(rng->Normal(0.0, options.rtt_noise_sigma));
        }
        sys.Update(self, peer, rtt);
      }
    }
  }
  return sys;
}

}  // namespace sbon::coords
