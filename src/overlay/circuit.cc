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
      c.edges_.push_back(
          CircuitEdge{child, i, plan.op(child).out_bytes_per_s});
    }
  }
  // CSR incidence: count degrees, prefix-sum them into row starts, then
  // fill rows in ascending edge order (each edge lands in both endpoints'
  // rows). During the fill incidence_begin_[v] is row v's cursor, which
  // leaves it at row v + 1's start; shifting by one restores the starts.
  std::vector<int>& begin = c.incidence_begin_;
  begin.assign(c.vertices_.size() + 1, 0);
  for (const CircuitEdge& e : c.edges_) {
    ++begin[e.from + 1];
    ++begin[e.to + 1];
  }
  for (size_t v = 1; v < begin.size(); ++v) begin[v] += begin[v - 1];
  c.incidence_.resize(2 * c.edges_.size());
  for (int e = 0; e < static_cast<int>(c.edges_.size()); ++e) {
    const CircuitEdge& edge = c.edges_[e];
    c.incidence_[begin[edge.from]++] = {e, edge.to};
    c.incidence_[begin[edge.to]++] = {e, edge.from};
  }
  for (size_t v = begin.size() - 1; v > 0; --v) begin[v] = begin[v - 1];
  begin[0] = 0;
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

double Circuit::PhysicalInputRate(int v) const {
  double rate = 0.0;
  for (const auto& [edge_idx, other] : IncidentEdges(v)) {
    const CircuitEdge& e = edges_[edge_idx];
    if (e.physical && e.to == v) rate += e.rate_bytes_per_s;
  }
  return rate;
}

double Circuit::TotalEdgeRate() const {
  double s = 0.0;
  for (const CircuitEdge& e : edges_) {
    if (e.physical) s += e.rate_bytes_per_s;
  }
  return s;
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
  // mark descendants reused (no deployment) and their edges non-physical.
  std::vector<int> stack = plan_.op(vertex).children;
  std::vector<bool> in_subtree(vertices_.size(), false);
  in_subtree[vertex] = true;
  while (!stack.empty()) {
    const int i = stack.back();
    stack.pop_back();
    in_subtree[i] = true;
    CircuitVertex& d = vertices_[i];
    if (!d.pinned) {
      d.reused = true;
      d.service = kInvalidService;
      d.host = instance_host;
    }
    for (int c : plan_.op(i).children) stack.push_back(c);
  }
  for (CircuitEdge& e : edges_) {
    if (in_subtree[e.to] && in_subtree[e.from]) e.physical = false;
  }
}

}  // namespace sbon::overlay
