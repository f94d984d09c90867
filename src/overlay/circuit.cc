#include "overlay/circuit.h"

namespace sbon::overlay {

StatusOr<Circuit> Circuit::FromPlan(query::LogicalPlan plan,
                                    const query::Catalog& catalog) {
  Status valid = plan.Validate();
  if (!valid.ok()) return valid;
  Circuit c;
  c.vertices_.resize(plan.NumOps());
  // A valid plan is a tree: one edge per op but the root.
  c.edges_.reserve(plan.NumOps() - 1);
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    const query::PlanOp& op = plan.op(i);
    CircuitVertex& v = c.vertices_[i];
    switch (op.kind) {
      case query::OpKind::kProducer: {
        if (!catalog.Has(op.stream)) {
          return Status::NotFound("circuit references unknown stream");
        }
        v.pinned = true;
        v.host = catalog.stream(op.stream).producer;
        break;
      }
      case query::OpKind::kConsumer:
        v.pinned = true;
        v.host = plan.consumer();
        break;
      default:
        v.pinned = false;
        break;
    }
    for (int child : op.children) {
      c.vertices_[child].parent_edge = static_cast<int>(c.edges_.size());
      c.edges_.push_back(
          CircuitEdge{child, i, plan.op(child).out_bytes_per_s});
    }
  }
  c.plan_ = std::move(plan);
  return c;
}

std::vector<int> Circuit::UnpinnedVertices() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(vertices_.size()); ++i) {
    if (!vertices_[i].pinned) out.push_back(i);
  }
  return out;
}

std::vector<int> Circuit::PlaceableVertices() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(vertices_.size()); ++i) {
    if (Placeable(i)) out.push_back(i);
  }
  return out;
}

bool Circuit::FullyPlaced() const {
  for (const CircuitVertex& v : vertices_) {
    if (v.host == kInvalidNode) return false;
  }
  return true;
}

Circuit::IncidenceList Circuit::IncidentEdges(int v) const {
  IncidenceList out;
  for (int child : plan_.op(v).children) {
    out.at[out.count++] = {vertices_[child].parent_edge, child};
  }
  const int up = vertices_[v].parent_edge;
  if (up >= 0) out.at[out.count++] = {up, edges_[up].to};
  return out;
}

double Circuit::PhysicalInputRate(int v) const {
  double rate = 0.0;
  for (const auto& [edge_idx, other] : IncidentEdges(v)) {
    const CircuitEdge& e = edges_[edge_idx];
    if (e.physical && e.to == v) rate += e.rate_bytes_per_s;
  }
  return rate;
}

void Circuit::BindReusedSubtree(int vertex, ServiceInstanceId instance,
                                NodeId instance_host,
                                double upstream_latency_ms) {
  CircuitVertex& v = vertices_[vertex];
  v.reused = true;
  v.service = instance;
  v.host = instance_host;
  v.reused_upstream_latency_ms = upstream_latency_ms;
  // Everything below the reused vertex is served by the existing instance:
  // mark descendants reused (no deployment) and the edges to their parents
  // non-physical.
  const query::ChildList& top = plan_.op(vertex).children;
  std::vector<int> stack(top.begin(), top.end());
  while (!stack.empty()) {
    const int i = stack.back();
    stack.pop_back();
    CircuitVertex& d = vertices_[i];
    edges_[d.parent_edge].physical = false;
    if (!d.pinned) {
      d.reused = true;
      d.service = kInvalidService;
      d.host = instance_host;
    }
    for (int c : plan_.op(i).children) stack.push_back(c);
  }
}

}  // namespace sbon::overlay
