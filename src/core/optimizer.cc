#include "core/optimizer.h"

#include "overlay/metrics.h"

namespace sbon::core {

StatusOr<double> EstimateCost(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda) {
  if (!circuit.FullyPlaced()) {
    return Status::FailedPrecondition("circuit not fully placed");
  }
  const coords::CostSpace& space = sbon.cost_space();
  double network_usage = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    network_usage +=
        e.rate_bytes_per_s * space.VectorDistance(circuit.vertex(e.from).host,
                                                  circuit.vertex(e.to).host);
  }
  return network_usage + lambda * overlay::LoadPenalty(circuit, space);
}

}  // namespace sbon::core
