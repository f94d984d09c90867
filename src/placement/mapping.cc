#include "placement/mapping.h"

#include <algorithm>
#include <cmath>

namespace sbon::placement {
namespace {

// Extends a vector-space point with zero scalar coordinates (the "ideal"
// target of physical mapping).
Vec IdealFullTarget(const Vec& vector_point, size_t scalar_dims) {
  Vec out = vector_point;
  for (size_t i = 0; i < scalar_dims; ++i) out.Append(0.0);
  return out;
}

double VectorPartDistance(const Vec& full_coord, const Vec& vector_point) {
  double s = 0.0;
  for (size_t d = 0; d < vector_point.dims(); ++d) {
    const double diff = full_coord[d] - vector_point[d];
    s += diff * diff;
  }
  return std::sqrt(s);
}

Status MapOneVertex(overlay::Circuit* circuit, int v,
                    const std::vector<dht::IndexMatch>& candidates,
                    const MappingOptions& options, MappingReport* report) {
  if (candidates.empty()) {
    return Status::NotFound("no mapping candidates for service");
  }
  const Vec& target = circuit->vertex(v).virtual_coord;
  // Candidates arrive sorted by full cost-space distance. The vector-nearest
  // candidate is what a load-blind mapper would take.
  size_t vector_nearest = 0;
  double best_vec = 1e300;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double dv = VectorPartDistance(candidates[i].coord, target);
    if (dv < best_vec) {
      best_vec = dv;
      vector_nearest = i;
    }
  }
  const size_t chosen = options.load_aware ? 0 : vector_nearest;
  circuit->mutable_vertex(v).host = candidates[chosen].node;
  if (report != nullptr) {
    report->services_mapped += 1;
    report->total_mapping_error +=
        VectorPartDistance(candidates[chosen].coord, target);
    if (options.load_aware && chosen != vector_nearest &&
        candidates[chosen].node != candidates[vector_nearest].node) {
      report->load_overrides += 1;
    }
  }
  return Status::OK();
}

}  // namespace

Status MapCircuit(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                  const MappingOptions& options, MappingReport* report) {
  const size_t scalar_dims = sbon.cost_space().spec().num_scalar_dims();
  // One candidate buffer per thread, reused across vertices and calls: the
  // index query keeps its capacity, so mapping a circuit is heap-free.
  thread_local std::vector<dht::IndexMatch> matches;
  for (int v = 0; v < static_cast<int>(circuit->NumVertices()); ++v) {
    if (!circuit->Placeable(v)) continue;
    const Vec target =
        IdealFullTarget(circuit->vertex(v).virtual_coord, scalar_dims);
    dht::IndexQueryCost qcost;
    Status st = sbon.index().KNearestInto(target, options.k_candidates,
                                          options.probe_width, &qcost, {},
                                          &matches);
    if (!st.ok()) return st;
    if (report != nullptr) {
      report->dht_cost.lookups += qcost.lookups;
      report->dht_cost.routing_hops += qcost.routing_hops;
      report->dht_cost.ring_probes += qcost.ring_probes;
    }
    st = MapOneVertex(circuit, v, matches, options, report);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status MapCircuitExact(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                       const MappingOptions& options, MappingReport* report) {
  const size_t scalar_dims = sbon.cost_space().spec().num_scalar_dims();
  std::vector<dht::IndexMatch> matches;
  for (int v : circuit->PlaceableVertices()) {
    const Vec target =
        IdealFullTarget(circuit->vertex(v).virtual_coord, scalar_dims);
    sbon.index().KNearestExactInto(target, options.k_candidates, &matches);
    Status st = MapOneVertex(circuit, v, matches, options, report);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace sbon::placement
