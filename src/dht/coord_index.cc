#include "dht/coord_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sbon::dht {

CoordinateIndex::CoordinateIndex(HilbertQuantizer quantizer)
    : quantizer_(std::move(quantizer)), coords_(quantizer_.dims(), 0) {}

void CoordinateIndex::Publish(NodeId node, const Vec& coord) {
  PublishAll(&node, &coord, 1);
}

void CoordinateIndex::PublishAll(const NodeId* nodes, const Vec* coords,
                                 size_t count) {
  moves_.clear();
  for (size_t i = 0; i < count; ++i) {
    const NodeId node = nodes[i];
    assert(coords[i].dims() == quantizer_.dims());
    if (coords_.nodes() <= node) {
      coords_.EnsureNodes(node + 1);
      published_.resize(node + 1, false);
    }
    coords_.SetNode(node, coords[i]);
    published_[node] = true;
    moves_.push_back(ChordRing::Member{quantizer_.Key(coords[i]), node});
  }
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

void CoordinateIndex::EmitMatches(size_t count,
                                  std::vector<IndexMatch>* out) const {
  out->reserve(out->size() + count);
  for (size_t j = 0; j < count; ++j) {
    const DistNode& p = pair_scratch_[j];
    out->push_back(IndexMatch{p.node, p.distance, coords_.NodeVec(p.node)});
  }
}

void CoordinateIndex::BeginSeenEpoch() const {
  if (seen_stamp_.size() < coords_.nodes()) {
    seen_stamp_.resize(coords_.nodes(), 0);
  }
  if (++query_epoch_ == 0) {  // stamp wrap-around: invalidate all marks
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
    query_epoch_ = 1;
  }
}

StatusOr<size_t> CoordinateIndex::RankNearest(
    const Vec& target, size_t k, size_t probe_width, IndexQueryCost* cost,
    const std::vector<NodeId>& exclude) const {
  if (ring_.NumMembers() == 0) {
    return Status::FailedPrecondition("coordinate index is empty");
  }
  const U128 key = quantizer_.Key(target);
  auto lookup = ring_.Lookup(key);
  if (!lookup.ok()) return lookup.status();
  if (cost != nullptr) {
    cost->lookups += 1;
    cost->routing_hops += lookup->hops;
  }

  exclude_scratch_.assign(exclude.begin(), exclude.end());
  std::sort(exclude_scratch_.begin(), exclude_scratch_.end());

  const size_t n = ring_.NumMembers();
  const size_t width = std::min(probe_width, n);
  // The interleaved walk 0, +1, -1, +2, -2, ... visits pairwise-distinct
  // ring members as long as at most n are taken (positions +i and -j first
  // coincide at i + j = n), so capping the walk at `total` members needs no
  // per-query seen-set. Each distinct member costs exactly one ring probe,
  // excluded or not — a member is never billed twice.
  const size_t total = std::min(2 * width + 1, n);
  walk_scratch_.clear();
  auto consider = [&](const ChordRing::Member& m) {
    if (cost != nullptr) cost->ring_probes += 1;
    if (std::binary_search(exclude_scratch_.begin(), exclude_scratch_.end(),
                           m.node)) {
      return;
    }
    walk_scratch_.push_back(m.node);
  };
  // Odd steps take the next successor, even steps the next predecessor.
  // Both indices are stepped with a wrap test instead of a modulo per
  // member: after step 2i - 1, members[succ] is SuccessorAt(start, i);
  // after step 2i, members[pred] is PredecessorAt(start, i).
  const std::vector<ChordRing::Member>& members = ring_.members();
  size_t succ = lookup->member_index;
  size_t pred = succ;
  consider(members[succ]);
  for (size_t step = 1; step < total; ++step) {
    if ((step & 1) != 0) {
      if (++succ == n) succ = 0;
      consider(members[succ]);
    } else {
      pred = (pred == 0 ? n : pred) - 1;
      consider(members[pred]);
    }
  }

  // Batched distance sweep over the walked candidates, then rank 16-byte
  // (distance, node) pairs.
  const size_t count = walk_scratch_.size();
  dist_scratch_.resize(count);
  kernels::DistanceSquaredToMany(coords_, target.data(), walk_scratch_.data(),
                                 count, dist_scratch_.data());
  kernels::SqrtMany(dist_scratch_.data(), count);
  pair_scratch_.clear();
  for (size_t j = 0; j < count; ++j) {
    pair_scratch_.push_back(DistNode{dist_scratch_[j], walk_scratch_[j]});
  }
  // The (distance, node) order is strict, so the partially sorted top-k
  // prefix is exactly the prefix of a full sort.
  const size_t keep = std::min(k, pair_scratch_.size());
  std::partial_sort(pair_scratch_.begin(), pair_scratch_.begin() + keep,
                    pair_scratch_.end());
  return keep;
}

Status CoordinateIndex::KNearestInto(const Vec& target, size_t k,
                                     size_t probe_width, IndexQueryCost* cost,
                                     const std::vector<NodeId>& exclude,
                                     std::vector<IndexMatch>* out) const {
  out->clear();
  auto keep = RankNearest(target, k, probe_width, cost, exclude);
  if (!keep.ok()) return keep.status();
  EmitMatches(*keep, out);
  return Status::OK();
}

Status CoordinateIndex::KNearestNodesInto(const Vec& target, size_t k,
                                          size_t probe_width,
                                          IndexQueryCost* cost,
                                          std::vector<NodeId>* out) const {
  out->clear();
  auto keep = RankNearest(target, k, probe_width, cost, {});
  if (!keep.ok()) return keep.status();
  out->reserve(*keep);
  for (size_t j = 0; j < *keep; ++j) out->push_back(pair_scratch_[j].node);
  return Status::OK();
}

StatusOr<std::vector<IndexMatch>> CoordinateIndex::KNearest(
    const Vec& target, size_t k, size_t probe_width, IndexQueryCost* cost,
    const std::vector<NodeId>& exclude) const {
  std::vector<IndexMatch> out;
  Status st = KNearestInto(target, k, probe_width, cost, exclude, &out);
  if (!st.ok()) return st;
  return out;
}

StatusOr<IndexMatch> CoordinateIndex::Nearest(const Vec& target,
                                              size_t probe_width,
                                              IndexQueryCost* cost) const {
  Status st = KNearestInto(target, 1, probe_width, cost, {}, &nearest_scratch_);
  if (!st.ok()) return st;
  if (nearest_scratch_.empty()) return Status::NotFound("no nodes in index");
  return nearest_scratch_[0];
}

StatusOr<std::vector<IndexMatch>> CoordinateIndex::WithinRadius(
    const Vec& target, double radius, IndexQueryCost* cost) const {
  if (ring_.NumMembers() == 0) {
    return Status::FailedPrecondition("coordinate index is empty");
  }
  const U128 key = quantizer_.Key(target);
  auto lookup = ring_.Lookup(key);
  if (!lookup.ok()) return lookup.status();
  if (cost != nullptr) {
    cost->lookups += 1;
    cost->routing_hops += lookup->hops;
  }

  BeginSeenEpoch();
  pair_scratch_.clear();
  const size_t n = ring_.NumMembers();
  auto consider = [&](const ChordRing::Member& m) {
    if (seen_stamp_[m.node] == query_epoch_) return false;
    seen_stamp_[m.node] = query_epoch_;
    if (cost != nullptr) cost->ring_probes += 1;
    const double d = DistanceTo(m.node, target);
    if (d <= radius) pair_scratch_.push_back(DistNode{d, m.node});
    return d <= radius;
  };

  consider(ring_.SuccessorAt(lookup->member_index, 0));
  // Walk both directions; stop a direction after `kMissesToStop` consecutive
  // members outside the radius (the curve has carried us away from the
  // sphere), or when the whole ring was seen.
  constexpr size_t kMissesToStop = 8;
  size_t succ_misses = 0, pred_misses = 0;
  bool succ_done = false, pred_done = false;
  for (size_t i = 1; i < n && (!succ_done || !pred_done); ++i) {
    if (!succ_done) {
      if (consider(ring_.SuccessorAt(lookup->member_index, i))) {
        succ_misses = 0;
      } else if (++succ_misses >= kMissesToStop) {
        succ_done = true;
      }
    }
    if (!pred_done) {
      if (consider(ring_.PredecessorAt(lookup->member_index, i))) {
        pred_misses = 0;
      } else if (++pred_misses >= kMissesToStop) {
        pred_done = true;
      }
    }
  }
  // Rank 16-byte (distance, node) pairs; build the matches only at the end.
  std::sort(pair_scratch_.begin(), pair_scratch_.end());
  std::vector<IndexMatch> out;
  EmitMatches(pair_scratch_.size(), &out);
  return out;
}

void CoordinateIndex::KNearestExactInto(const Vec& target, size_t k,
                                        std::vector<IndexMatch>* out) const {
  out->clear();
  const size_t slots = coords_.nodes();
  if (slots == 0) return;
  // Unit-stride distance sweep over every slot. Withdrawn slots keep their
  // stale published coordinate (exactly as the per-Vec store did); their
  // distances are computed and filtered below — cheaper than branching
  // inside the vector loop.
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
  EmitMatches(pair_scratch_.size(), out);
}

std::vector<IndexMatch> CoordinateIndex::KNearestExact(const Vec& target,
                                                       size_t k) const {
  std::vector<IndexMatch> out;
  KNearestExactInto(target, k, &out);
  return out;
}

}  // namespace sbon::dht
