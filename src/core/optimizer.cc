#include "core/optimizer.h"

#include "overlay/metrics.h"

namespace sbon::core {
namespace {

// EstimateCost's expression, with the bounds EstimateCostLowerBound
// documents for terms that need an unmapped host. Leaving a network-usage
// term out equals adding its bound, 0.
double CostExpression(const overlay::Circuit& circuit,
                      const coords::CostSpace& space, double lambda,
                      double penalty_floor) {
  double network_usage = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const NodeId from = circuit.vertex(e.from).host;
    const NodeId to = circuit.vertex(e.to).host;
    if (from == kInvalidNode || to == kInvalidNode) continue;
    network_usage += e.rate_bytes_per_s * space.VectorDistance(from, to);
  }
  return network_usage +
         lambda * overlay::LoadPenalty(circuit, space, penalty_floor);
}

}  // namespace

StatusOr<double> EstimateCost(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda) {
  if (!circuit.FullyPlaced()) {
    return Status::FailedPrecondition("circuit not fully placed");
  }
  return CostExpression(circuit, sbon.cost_space(), lambda, 0.0);
}

double EstimateCostLowerBound(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda,
                              double penalty_floor) {
  return CostExpression(circuit, sbon.cost_space(), lambda, penalty_floor);
}

Status PlaceAndMap(overlay::Circuit* circuit, overlay::Sbon* sbon,
                   const placement::VirtualPlacer& placer,
                   const placement::MappingOptions& mapping,
                   placement::MappingReport* report,
                   std::vector<NodeId>* candidates) {
  Status st = placer.Place(circuit, sbon->cost_space());
  if (!st.ok()) return st;
  return placement::MapCircuit(circuit, *sbon, mapping, report, candidates);
}

Status ValidateLambda(double lambda) {
  if (lambda >= 0.0) return Status::OK();
  return Status::InvalidArgument("optimizer lambda must be >= 0");
}

}  // namespace sbon::core
