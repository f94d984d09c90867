#ifndef SBON_PLACEMENT_RELAXATION_H_
#define SBON_PLACEMENT_RELAXATION_H_

#include "placement/virtual_placement.h"

namespace sbon::placement {

/// Relaxation placement (paper Sec. 3.2, after TR-26-04 [7]): models the
/// circuit as a spring system — every data edge is a spring whose constant
/// is the edge's data rate and whose extension is the coordinate distance;
/// pinned services are fixed bodies, unpinned services are massless bodies
/// that settle where forces balance.
///
/// The equilibrium of that system minimizes the spring energy
/// sum(rate * dist^2); we reach it by Gauss-Seidel sweeps (each unpinned
/// vertex moves to the rate-weighted average of its neighbors), which is
/// the same fixed point the force integration in [7] converges to, reached
/// deterministically.
///
/// Sweeps run over an `internal::SweepFrame`'s term table: one row per
/// placeable vertex holding its positive-rate springs as (rate, anchor
/// pointer) terms in ascending edge order, and their rate sum. Each anchor's
/// host coordinate is fetched once per `Place`, placeable positions are read
/// and written as raw doubles in place, and the frame's buffers are the
/// placer's own, so a `Place` on a warm circuit allocates nothing (and
/// calls on one placer must not overlap). `Place` dispatches once on the
/// space's vector dimension count: the sweep body is one template,
/// instantiated at 2 and 3 dims with every per-component loop unrolled, and
/// at 0 for any other count, which reads the count at runtime.
///
/// Bit-identity contract: positions and the number of sweeps run equal
/// those of the `Vec`-valued sweep bit for bit
/// (`tests/placement_equivalence_test.cc` pins this at 2, 3 and 11 dims,
/// `GradientPlacer` included), because
///  - every per-component expression is the one `Vec::AddScaled`,
///    `operator/` and `DistanceTo` evaluate, in the same order, and the
///    division stays a division (no reciprocal);
///  - the hoisted rate sum adds the same rates in the same order as a
///    per-sweep `den += rate`, and no sweep changes a rate;
///  - a sweep keeps its largest *squared* move and takes one sqrt of it:
///    a correctly rounded sqrt is monotone, so sqrt(max s) = max sqrt(s),
///    the largest `DistanceTo`.
class RelaxationPlacer : public VirtualPlacer {
 public:
  struct Params {
    size_t max_sweeps = 200;
    /// Stop after a sweep in which every vertex moved strictly less than
    /// this (cost-space units); 0 runs all `max_sweeps`.
    double tolerance = 1e-4;
  };

  RelaxationPlacer() : RelaxationPlacer(Params()) {}
  explicit RelaxationPlacer(Params params) : params_(params) {}

  Status Place(overlay::Circuit* circuit,
               const coords::CostSpace& space) const override;
  std::string Name() const override { return "relaxation"; }

 private:
  Params params_;
  mutable internal::SweepBuffers buffers_;
};

/// One-shot baseline: every unpinned service at the rate-weighted centroid
/// of the circuit's pinned endpoints. Ignores circuit structure.
class CentroidPlacer : public VirtualPlacer {
 public:
  Status Place(overlay::Circuit* circuit,
               const coords::CostSpace& space) const override;
  std::string Name() const override { return "centroid"; }

 private:
  mutable internal::SweepBuffers buffers_;
};

/// Iteratively minimizes the *linear* network-usage objective
/// sum(rate * dist) by per-vertex Weiszfeld updates (the true "amount of
/// data in transit" objective, vs. the spring system's quadratic proxy),
/// seeded at the spring equilibrium. The Weiszfeld sweep runs over the same
/// term table, dims dispatch and bit-identity contract as
/// `RelaxationPlacer`; its weights depend on positions, so it sums them per
/// sweep.
class GradientPlacer : public VirtualPlacer {
 public:
  struct Params {
    size_t max_sweeps = 300;
    /// Stop after a Weiszfeld sweep in which every vertex moved strictly
    /// less than this; 0 runs all `max_sweeps`.
    double tolerance = 1e-4;
  };

  /// Floor on the distance a Weiszfeld weight divides by.
  static constexpr double kDistanceGuard = 1e-6;

  GradientPlacer() : GradientPlacer(Params()) {}
  explicit GradientPlacer(Params params) : params_(params) {}

  Status Place(overlay::Circuit* circuit,
               const coords::CostSpace& space) const override;
  std::string Name() const override { return "gradient"; }

 private:
  Params params_;
  mutable internal::SweepBuffers buffers_;
};

/// Objective helpers over virtual coordinates. Both read each anchor in
/// place (a pinned or reused vertex's host column of `vector_block()`, a
/// placeable vertex's `virtual_coord`) with `Vec::DistanceTo`'s arithmetic.
/// sum over physical edges of rate * distance(anchor(from), anchor(to)):
/// a virtually placed circuit's network usage, by which the integrated
/// optimizer orders candidates for mapping.
double VirtualLinearCost(const overlay::Circuit& circuit,
                         const coords::CostSpace& space);
/// sum over edges of rate * distance^2.
double VirtualQuadraticCost(const overlay::Circuit& circuit,
                            const coords::CostSpace& space);

}  // namespace sbon::placement

#endif  // SBON_PLACEMENT_RELAXATION_H_
