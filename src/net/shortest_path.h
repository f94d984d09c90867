#ifndef SBON_NET_SHORTEST_PATH_H_
#define SBON_NET_SHORTEST_PATH_H_

#include <vector>

#include "common/ids.h"
#include "net/topology.h"

namespace sbon::net {

/// Single-source shortest-path latencies (ms) from `src` over the topology's
/// link latencies (Dijkstra). Unreachable nodes get +inf.
std::vector<double> DijkstraLatencies(const Topology& topo, NodeId src);

/// Same as `DijkstraLatencies` but also returns the predecessor of each node
/// on its shortest path (kInvalidNode for src/unreachable).
void DijkstraWithPredecessors(const Topology& topo, NodeId src,
                              std::vector<double>* dist,
                              std::vector<NodeId>* pred);

/// Read-only pairwise-latency oracle: the interface every latency consumer
/// (Vivaldi sampling, circuit cost accounting, embedding evaluation) reads
/// through. Implemented densely by LatencyMatrix and by NetworkFabric's
/// read-time views — consumers cannot tell them apart because fixed-seed
/// values are bit-identical in every base mode that resolves exact rows.
class LatencyView {
 public:
  virtual ~LatencyView() = default;

  virtual size_t NumNodes() const = 0;

  /// Shortest-path latency in ms between a and b. Generative
  /// implementations compute this on demand; treat a read as "cheap but not
  /// free" (an O(1)-to-O(landmarks) lookup, never an O(n) scan).
  virtual double Latency(NodeId a, NodeId b) const = 0;

  /// Mean of all off-diagonal pairwise latencies (used for normalization).
  /// O(n^2) reads — the default walks every pair in the same order the
  /// dense matrix does, so dense and generative views agree bitwise.
  virtual double MeanLatency() const;
  /// Maximum finite pairwise latency (network diameter in ms). O(n^2) reads.
  virtual double MaxLatency() const;
};

/// Dense all-pairs latency matrix. Built once per topology; queries are O(1).
/// This is the "network oracle" that stands in for real RTT measurements:
/// Vivaldi samples it with noise, and circuit cost accounting uses it exactly.
class LatencyMatrix final : public LatencyView {
 public:
  /// Runs Dijkstra from every node. O(n * m log n).
  explicit LatencyMatrix(const Topology& topo);

  size_t NumNodes() const override { return n_; }

  /// Shortest-path latency in ms between a and b.
  double Latency(NodeId a, NodeId b) const override { return m_[a * n_ + b]; }

  /// Overrides one symmetric pairwise latency (tests / scripted scenarios).
  void Set(NodeId a, NodeId b, double latency_ms) {
    m_[a * n_ + b] = latency_ms;
    m_[b * n_ + a] = latency_ms;
  }

  /// Direct-buffer overrides of the LatencyView pair sweeps (same walk
  /// order, so results match the generic implementations bitwise).
  double MeanLatency() const override;
  double MaxLatency() const override;

 private:
  size_t n_;
  std::vector<double> m_;
};

}  // namespace sbon::net

#endif  // SBON_NET_SHORTEST_PATH_H_
