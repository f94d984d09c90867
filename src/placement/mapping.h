#ifndef SBON_PLACEMENT_MAPPING_H_
#define SBON_PLACEMENT_MAPPING_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dht/coord_index.h"
#include "overlay/sbon.h"

namespace sbon::placement {

/// Physical mapping (paper Sec. 3.2): turns each placeable vertex's virtual
/// coordinate into a physical node by querying the decentralized coordinate
/// index for nodes near the ideal point (virtual coordinate in the vector
/// dims, zero in all scalar dims).
///
/// With `load_aware = true` (default) candidates are ranked by full
/// cost-space distance — a lightly loaded node slightly farther in latency
/// beats a nearby overloaded one (the paper's N1-vs-N2 example, Figure 3).
/// With `load_aware = false` candidates are re-ranked by vector distance
/// only, reproducing the naive latency-greedy mapper.
struct MappingOptions {
  size_t k_candidates = 8;   ///< candidates fetched per service
  size_t probe_width = 16;   ///< Hilbert-ring walk width per direction
  bool load_aware = true;

  bool operator==(const MappingOptions&) const = default;
};

/// Accumulated per-mapping measurements.
struct MappingReport {
  dht::IndexQueryCost dht_cost;
  size_t services_mapped = 0;
  /// Sum over services of vector-space distance virtual -> chosen node (the
  /// paper's "mapping error").
  double total_mapping_error = 0.0;
  /// Times the load-aware ranking overrode the vector-nearest candidate.
  size_t load_overrides = 0;

  MappingReport& operator+=(const MappingReport& o) {
    dht_cost += o.dht_cost;
    services_mapped += o.services_mapped;
    total_mapping_error += o.total_mapping_error;
    load_overrides += o.load_overrides;
    return *this;
  }

  double MeanMappingError() const {
    return services_mapped == 0 ? 0.0
                                : total_mapping_error /
                                      static_cast<double>(services_mapped);
  }
};

/// Maps placeable vertex `v` of a virtually placed `circuit` to a host: one
/// index query for the top-k node ids nearest the ideal point over `v`'s
/// virtual coordinate, written into the caller's `candidates` buffer,
/// ranked and checked against the index's published coordinates. Heap-free
/// once `candidates` has grown to k. Fails if the index is empty. `report`
/// is optional.
Status MapVertex(overlay::Circuit* circuit, int v, const overlay::Sbon& sbon,
                 const MappingOptions& options, MappingReport* report,
                 std::vector<NodeId>* candidates);

/// Maps every placeable vertex of `circuit`, in vertex order, with
/// MapVertex over `candidates`, or over a buffer of its own when omitted.
/// `report` is optional.
Status MapCircuit(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                  const MappingOptions& options, MappingReport* report,
                  std::vector<NodeId>* candidates);
Status MapCircuit(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                  const MappingOptions& options, MappingReport* report);

/// Oracle variant: scans all overlay nodes instead of probing the DHT
/// (exact nearest by the same metric). Used to isolate Hilbert-probe error.
Status MapCircuitExact(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                       const MappingOptions& options, MappingReport* report);

}  // namespace sbon::placement

#endif  // SBON_PLACEMENT_MAPPING_H_
