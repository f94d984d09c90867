#ifndef SBON_QUERY_STATS_H_
#define SBON_QUERY_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace sbon::query {

/// Rate model for stream operators.
///
/// The cost the paper optimizes is *data in transit* (rate x latency), so
/// the only statistics the optimizer needs are per-edge data rates. We use
/// the standard windowed symmetric-join model: each arrival on one input
/// probes the tuples that arrived on the other input within the window.
///
///   out_rate = selectivity * (rA * (rB * W) + rB * (rA * W))
///            = 2 * selectivity * rA * rB * W
///
/// Selections thin rates multiplicatively; aggregates scale by a factor.

/// Output tuple rate of a select with `selectivity` over input rate `r`.
double SelectOutputRate(double r, double selectivity);

/// Output tuple rate of a windowed join (tuples/s).
double JoinOutputRate(double r_left, double r_right, double selectivity,
                      double window_s);

/// Output tuple size of a join (concatenated payloads).
double JoinOutputTupleSize(double size_left, double size_right);

/// Combined join selectivity between two stream sets, given the pairwise
/// selectivity matrix of the join graph: the product of the pairwise
/// selectivities across the cut, left-major (1.0 entries mean "no
/// predicate" / cross-product-free join graphs keep those at 1). An empty
/// matrix means no predicates at all: the product is exactly 1.0.
double CrossSelectivity(std::span<const size_t> left_set,
                        std::span<const size_t> right_set,
                        const std::vector<std::vector<double>>& pair_sel);

}  // namespace sbon::query

#endif  // SBON_QUERY_STATS_H_
