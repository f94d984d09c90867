#ifndef SBON_OVERLAY_CIRCUIT_H_
#define SBON_OVERLAY_CIRCUIT_H_

#include <array>
#include <cstddef>
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
  /// Index of the edge to this vertex's parent; -1 at the root.
  int parent_edge = -1;
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
/// The tree is stored once: the plan's child lists plus each vertex's
/// `parent_edge`. `FromPlan` appends op i's child edges in child order, and
/// children precede parents, so a vertex's incident edges in ascending edge
/// index are its child edges followed by its parent edge — at most three,
/// which `IncidentEdges` returns by value without allocating. Edges never
/// change after `FromPlan` (`BindReusedSubtree` only flips their `physical`
/// bit).
class Circuit {
 public:
  /// One incidence entry: (edge index, other-vertex index).
  using Incidence = std::pair<int, int>;

  /// A vertex's incident edges: a join's two child edges and its parent
  /// edge at most.
  struct IncidenceList {
    std::array<Incidence, 3> at{};
    size_t count = 0;
    size_t size() const { return count; }
    const Incidence* begin() const { return at.data(); }
    const Incidence* end() const { return at.data() + count; }
  };

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
  /// ascending edge index: its child edges, then its parent edge.
  IncidenceList IncidentEdges(int v) const;

  /// Data rate (bytes/s) entering vertex `v` over physical edges, summed
  /// in ascending edge order.
  double PhysicalInputRate(int v) const;

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
};

}  // namespace sbon::overlay

#endif  // SBON_OVERLAY_CIRCUIT_H_
