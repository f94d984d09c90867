#ifndef SBON_OVERLAY_CIRCUIT_H_
#define SBON_OVERLAY_CIRCUIT_H_

#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/vec.h"
#include "query/catalog.h"
#include "query/plan.h"

namespace sbon::overlay {

/// One vertex of a circuit: a plan operator bound (eventually) to a physical
/// node. Vertex i is the plan's op i. Producers and the consumer are pinned;
/// interior services are unpinned until placement runs.
struct CircuitVertex {
  NodeId host = kInvalidNode;       ///< physical node (kInvalidNode = unplaced)
  bool pinned = false;
  Vec virtual_coord;                ///< last virtual-placement coordinate
  ServiceInstanceId service = kInvalidService;  ///< deployed instance
  /// True if this vertex is served by a pre-existing instance from another
  /// circuit (multi-query reuse). Reused vertices deploy nothing; their
  /// subtree edges carry no new traffic.
  bool reused = false;
  /// For reused vertices: the source circuit's producer-to-instance
  /// critical-path latency, so end-to-end latency accounting stays correct.
  double reused_upstream_latency_ms = 0.0;
};

/// One stream edge of a circuit, carrying `rate_bytes_per_s` from vertex
/// `from` to vertex `to`.
struct CircuitEdge {
  int from = -1;
  int to = -1;
  double rate_bytes_per_s = 0.0;
  /// False for edges inside a reused subtree: the data already flows on the
  /// source circuit's edges, so this circuit adds no traffic there.
  bool physical = true;
};

/// The instantiation of a query in the SBON (paper Sec. 3): a tree of
/// services with pinned endpoints, unpinned interior, and data rates on
/// every edge. Cost accounting and placement both operate on this.
///
/// The vertex/edge incidence is built once, in `FromPlan`, as a CSR
/// (compressed sparse row) table: two flat vectors, so placement sweeps
/// walk a vertex's edges without allocating and a deep copy of a circuit
/// (the multi-query optimizer copies one per reuse variant) copies two
/// contiguous buffers. Edges never change after `FromPlan`
/// (`BindReusedSubtree` only flips their `physical` bit), so the table
/// never goes stale.
class Circuit {
 public:
  /// One incidence entry: (edge index, other-vertex index).
  using Incidence = std::pair<int, int>;

  Circuit() = default;

  /// Builds an unplaced circuit from an annotated logical plan: producer
  /// vertices pinned at their catalog nodes, consumer pinned at
  /// `plan.consumer()`, interior vertices unpinned. Takes the plan by value:
  /// callers done with their plan move it in instead of copying it.
  static StatusOr<Circuit> FromPlan(query::LogicalPlan plan,
                                    const query::Catalog& catalog);

  CircuitId id() const { return id_; }
  void set_id(CircuitId id) { id_ = id; }

  const query::LogicalPlan& plan() const { return plan_; }
  size_t NumVertices() const { return vertices_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  const CircuitVertex& vertex(int i) const { return vertices_[i]; }
  CircuitVertex& mutable_vertex(int i) { return vertices_[i]; }
  const std::vector<CircuitVertex>& vertices() const { return vertices_; }
  const std::vector<CircuitEdge>& edges() const { return edges_; }

  /// Vertex indices that are unpinned (interior services).
  std::vector<int> UnpinnedVertices() const;
  /// Unpinned vertices that still need placement/deployment (not reused).
  std::vector<int> PlaceableVertices() const;
  /// True once every vertex has a host.
  bool FullyPlaced() const;

  /// True if vertex `v` still needs placement: unpinned and not reused.
  bool Placeable(int v) const {
    return !vertices_[v].pinned && !vertices_[v].reused;
  }

  /// Edges incident to vertex `v` as (edge index, other-vertex index), in
  /// ascending edge index — a view into the CSR table, valid as long as
  /// the circuit is.
  std::span<const Incidence> IncidentEdges(int v) const {
    return std::span<const Incidence>(incidence_).subspan(
        incidence_begin_[v], incidence_begin_[v + 1] - incidence_begin_[v]);
  }

  /// Data rate (bytes/s) entering vertex `v` over physical edges, summed
  /// in ascending edge order.
  double PhysicalInputRate(int v) const;

  /// Total data rate (bytes/s) summed over physical edges.
  double TotalEdgeRate() const;

  /// Binds `vertex` to a pre-existing service instance hosted at
  /// `instance_host` (multi-query reuse): marks the vertex and its whole
  /// subtree reused, pins their hosts to the instance host, and turns the
  /// subtree's edges non-physical. `upstream_latency_ms` is the source
  /// circuit's latency up to the instance (for end-to-end accounting).
  void BindReusedSubtree(int vertex, ServiceInstanceId instance,
                         NodeId instance_host, double upstream_latency_ms);

 private:
  CircuitId id_ = kInvalidCircuit;
  query::LogicalPlan plan_;
  std::vector<CircuitVertex> vertices_;
  std::vector<CircuitEdge> edges_;
  // CSR incidence: vertex v's entries are
  // incidence_[incidence_begin_[v] .. incidence_begin_[v + 1]).
  std::vector<int> incidence_begin_;
  std::vector<Incidence> incidence_;
};

}  // namespace sbon::overlay

#endif  // SBON_OVERLAY_CIRCUIT_H_
