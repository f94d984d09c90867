#include "dht/coord_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sbon::dht {

CoordinateIndex::CoordinateIndex(HilbertQuantizer quantizer)
    : quantizer_(std::move(quantizer)), coords_(quantizer_.dims(), 0) {
  // A ring key holds the Hilbert point above the node id.
  assert(quantizer_.dims() * quantizer_.bits() + ChordRing::kNodeBits <=
         128);
}

void CoordinateIndex::Publish(NodeId node, const Vec& coord) {
  PublishAll(std::vector<NodeId>{node}, std::vector<Vec>{coord});
}

void CoordinateIndex::PublishAll(const std::vector<NodeId>& nodes,
                                 const std::vector<Vec>& coords) {
  assert(nodes.size() == coords.size());
  CoordBlock block(quantizer_.dims(), coords.size());
  for (size_t j = 0; j < coords.size(); ++j) block.SetNode(j, coords[j]);
  PublishAll(std::span<const NodeId>(nodes), block);
}

void CoordinateIndex::Reserve(size_t batch) {
  cells_.reserve(quantizer_.dims() * batch);
  points_.reserve(batch);
  moves_.reserve(batch);
}

void CoordinateIndex::PublishAll(std::span<const NodeId> nodes,
                                 const CoordBlock& coords) {
  const size_t count = nodes.size();
  const size_t dims = quantizer_.dims();
  assert(coords.dims() == dims && coords.nodes() >= count);
  for (NodeId node : nodes) {
    if (coords_.nodes() <= node) {
      coords_.EnsureNodes(node + 1);
      published_.resize(node + 1, false);
    }
    published_[node] = true;
  }
  // Slot by slot within each lane, so a node listed twice keeps its last
  // coordinate.
  for (size_t d = 0; d < dims; ++d) {
    const double* src = coords.lane(d);
    double* dst = coords_.lane(d);
    for (size_t j = 0; j < count; ++j) dst[nodes[j]] = src[j];
  }
  cells_.resize(dims * count);
  points_.resize(count);
  quantizer_.KeyLanes(coords, count, cells_.data(), points_.data());
  moves_.resize(count);
  for (size_t j = 0; j < count; ++j) moves_[j] = {points_[j], nodes[j]};
  ring_.Rejoin(moves_);
}

void CoordinateIndex::Withdraw(NodeId node) {
  if (node < published_.size() && published_[node]) {
    ring_.Leave(node);
    published_[node] = false;
  }
}

double CoordinateIndex::DistanceTo(NodeId n, const Vec& target) const {
  return std::sqrt(kernels::DistanceSquaredAt(coords_, n, target.data()));
}

StatusOr<size_t> CoordinateIndex::StartWalk(const Vec& target,
                                             IndexQueryCost* cost) const {
  if (ring_.NumMembers() == 0) {
    return Status::FailedPrecondition("coordinate index is empty");
  }
  auto lookup = ring_.Lookup(quantizer_.Key(target));
  if (!lookup.ok()) return lookup.status();
  if (cost != nullptr) {
    cost->lookups += 1;
    cost->routing_hops += lookup->hops;
  }
  return lookup->member_index;
}

StatusOr<size_t> CoordinateIndex::RankNearest(const Vec& target, size_t k,
                                              size_t probe_width,
                                              IndexQueryCost* cost) const {
  auto start = StartWalk(target, cost);
  if (!start.ok()) return start.status();

  const size_t n = ring_.NumMembers();
  const size_t width = std::min(probe_width, n);
  // The interleaved walk 0, +1, -1, +2, -2, ... visits pairwise-distinct
  // ring members as long as at most n are taken (positions +i and -j first
  // coincide at i + j = n), so capping the walk at `total` members needs no
  // per-query seen-set. Each distinct member costs exactly one ring probe.
  const size_t total = std::min(2 * width + 1, n);
  if (cost != nullptr) cost->ring_probes += total;
  const size_t keep = std::min(k, total);
  if (keep == 0) return keep;
  walk_scratch_.resize(total);
  NodeId* walked = walk_scratch_.data();
  // Odd steps take the next successor, even steps the next predecessor.
  // Both indices are stepped with a wrap test instead of a modulo per
  // member: after step 2i - 1, members[succ] is i members clockwise of the
  // start; after step 2i, members[pred] is i members counter-clockwise.
  const std::vector<ChordRing::Member>& members = ring_.members();
  size_t succ = *start;
  size_t pred = succ;
  walked[0] = members[succ].node;
  for (size_t step = 1; step < total; ++step) {
    if ((step & 1) != 0) {
      if (++succ == n) succ = 0;
      walked[step] = members[succ].node;
    } else {
      pred = (pred == 0 ? n : pred) - 1;
      walked[step] = members[pred].node;
    }
  }

  // Batched distance sweep over the walked candidates, then a bounded
  // insertion of each (distance, node) pair into a sorted `keep`-slot
  // buffer. The order is strict, so the buffer ends up holding exactly the
  // prefix of a full sort, ties included.
  dist_scratch_.resize(total);
  kernels::DistanceSquaredToMany(coords_, target.data(), walked, total,
                                 dist_scratch_.data());
  kernels::SqrtMany(dist_scratch_.data(), total);
  pair_scratch_.resize(keep);
  DistNode* top = pair_scratch_.data();
  size_t held = 0;
  for (size_t j = 0; j < total; ++j) {
    const DistNode p{dist_scratch_[j], walked[j]};
    if (held == keep) {
      if (!(p < top[keep - 1])) continue;
      --held;  // p displaces the current last
    }
    size_t i = held++;
    for (; i > 0 && p < top[i - 1]; --i) top[i] = top[i - 1];
    top[i] = p;
  }
  return keep;
}

Status CoordinateIndex::KNearestNodesInto(const Vec& target, size_t k,
                                          size_t probe_width,
                                          IndexQueryCost* cost,
                                          std::vector<NodeId>* out) const {
  out->clear();
  auto keep = RankNearest(target, k, probe_width, cost);
  if (!keep.ok()) return keep.status();
  out->reserve(*keep);
  for (size_t j = 0; j < *keep; ++j) out->push_back(pair_scratch_[j].node);
  return Status::OK();
}

Status CoordinateIndex::WithinRadiusInto(const Vec& target, double radius,
                                         IndexQueryCost* cost,
                                         std::vector<NodeId>* out) const {
  out->clear();
  auto start = StartWalk(target, cost);
  if (!start.ok()) return start.status();

  const std::vector<ChordRing::Member>& members = ring_.members();
  const size_t n = members.size();
  size_t considered = 0;
  auto consider = [&](size_t i) {
    ++considered;
    const NodeId node = members[i].node;
    const bool hit = DistanceTo(node, target) <= radius;
    if (hit) out->push_back(node);
    return hit;
  };
  // Walk both directions, stepping indices as RankNearest does; stop a
  // direction after `kMissesToStop` consecutive members outside the radius
  // (the curve has carried us away from the sphere). The two arcs stay
  // disjoint until they meet, which happens exactly when all n members
  // were considered, so the walk stops there and examines no member twice.
  constexpr size_t kMissesToStop = 8;
  size_t succ = *start;
  size_t pred = succ;
  size_t succ_misses = 0, pred_misses = 0;
  consider(succ);
  while (considered < n &&
         (succ_misses < kMissesToStop || pred_misses < kMissesToStop)) {
    if (succ_misses < kMissesToStop) {
      if (++succ == n) succ = 0;
      succ_misses = consider(succ) ? 0 : succ_misses + 1;
      if (considered == n) break;
    }
    if (pred_misses < kMissesToStop) {
      pred = (pred == 0 ? n : pred) - 1;
      pred_misses = consider(pred) ? 0 : pred_misses + 1;
    }
  }
  if (cost != nullptr) cost->ring_probes += considered;
  return Status::OK();
}

void CoordinateIndex::KNearestExactInto(const Vec& target, size_t k,
                                        std::vector<NodeId>* out) const {
  out->clear();
  const size_t slots = coords_.nodes();
  if (slots == 0) return;
  // Unit-stride distance sweep over every slot. Withdrawn slots keep their
  // stale published coordinate; their distances are computed and filtered
  // below — cheaper than branching inside the vector loop.
  dist_scratch_.resize(slots);
  kernels::DistanceSquaredToMany(coords_, target.data(), dist_scratch_.data());
  kernels::SqrtMany(dist_scratch_.data(), slots);
  pair_scratch_.clear();
  for (NodeId n = 0; n < slots; ++n) {
    if (!published_[n]) continue;
    pair_scratch_.push_back(DistNode{dist_scratch_[n], n});
  }
  if (pair_scratch_.size() > k) {
    // The (distance, node) order is total, so selecting k then sorting the
    // prefix yields exactly the full-sort prefix, in O(N + k log k) instead
    // of O(N log N).
    std::nth_element(pair_scratch_.begin(), pair_scratch_.begin() + k,
                     pair_scratch_.end());
    pair_scratch_.resize(k);
  }
  std::sort(pair_scratch_.begin(), pair_scratch_.end());
  for (const DistNode& p : pair_scratch_) out->push_back(p.node);
}

}  // namespace sbon::dht
