#include "placement/mapping.h"

#include <cmath>
#include <span>
#include <vector>

namespace sbon::placement {
namespace {

// Distance from the vector part of `node`'s published full coordinate to
// `vector_point`.
double VectorPartDistance(const CoordBlock& coords, NodeId node,
                          const Vec& vector_point) {
  double s = 0.0;
  for (size_t d = 0; d < vector_point.dims(); ++d) {
    const double diff = coords.At(d, node) - vector_point[d];
    s += diff * diff;
  }
  return std::sqrt(s);
}

// Binds vertex `v` to one of `candidates` (node ids sorted by full
// cost-space distance, nearest first) whose published coordinates are
// `coords`.
Status MapOneVertex(overlay::Circuit* circuit, int v,
                    std::span<const NodeId> candidates,
                    const CoordBlock& coords, const MappingOptions& options,
                    MappingReport* report) {
  if (candidates.empty()) {
    return Status::NotFound("no mapping candidates for service");
  }
  const Vec& target = circuit->vertex(v).virtual_coord;
  // The vector-nearest candidate is what a load-blind mapper would take.
  size_t vector_nearest = 0;
  double best_vec = 1e300;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double dv = VectorPartDistance(coords, candidates[i], target);
    if (dv < best_vec) {
      best_vec = dv;
      vector_nearest = i;
    }
  }
  const NodeId chosen = candidates[options.load_aware ? 0 : vector_nearest];
  circuit->mutable_vertex(v).host = chosen;
  if (report != nullptr) {
    report->services_mapped += 1;
    report->total_mapping_error += VectorPartDistance(coords, chosen, target);
    if (chosen != candidates[vector_nearest]) report->load_overrides += 1;
  }
  return Status::OK();
}

}  // namespace

Status MapVertex(overlay::Circuit* circuit, int v, const overlay::Sbon& sbon,
                 const MappingOptions& options, MappingReport* report,
                 std::vector<NodeId>* candidates) {
  const Vec target =
      sbon.cost_space().IdealTarget(circuit->vertex(v).virtual_coord);
  Status st = sbon.index().KNearestNodesInto(
      target, options.k_candidates, options.probe_width,
      report != nullptr ? &report->dht_cost : nullptr, candidates);
  if (!st.ok()) return st;
  return MapOneVertex(circuit, v, *candidates,
                      sbon.index().published_coords(), options, report);
}

Status MapCircuit(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                  const MappingOptions& options, MappingReport* report,
                  std::vector<NodeId>* candidates) {
  for (int v = 0; v < static_cast<int>(circuit->NumVertices()); ++v) {
    if (!circuit->Placeable(v)) continue;
    Status st = MapVertex(circuit, v, sbon, options, report, candidates);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status MapCircuit(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                  const MappingOptions& options, MappingReport* report) {
  std::vector<NodeId> candidates;
  return MapCircuit(circuit, sbon, options, report, &candidates);
}

Status MapCircuitExact(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                       const MappingOptions& options, MappingReport* report) {
  std::vector<NodeId> candidates;
  for (int v : circuit->PlaceableVertices()) {
    sbon.index().KNearestExactInto(
        sbon.cost_space().IdealTarget(circuit->vertex(v).virtual_coord),
        options.k_candidates, &candidates);
    Status st = MapOneVertex(circuit, v, candidates,
                             sbon.index().published_coords(), options, report);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace sbon::placement
