#include "coords/manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sbon::coords {

namespace {

// The Vivaldi gossip run at bring-up; its RTT noise also perturbs every
// online sample.
constexpr VivaldiRunOptions kVivaldiRun;

}  // namespace

StatusOr<std::unique_ptr<CoordinateManager>> CoordinateManager::Build(
    Params params, const net::LatencyView& lat, Rng* rng) {
  const size_t n = lat.NumNodes();
  std::unique_ptr<CoordinateManager> mgr(new CoordinateManager());
  mgr->params_ = params;

  std::vector<Vec> coords;
  switch (params.mode) {
    case CoordMode::kVivaldi: {
      VivaldiSystem::Params vp;
      vp.dims = params.spec.vector_dims();
      mgr->vivaldi_ = std::make_unique<VivaldiSystem>(
          RunVivaldi(lat, vp, kVivaldiRun, rng));
      coords.reserve(n);
      for (NodeId i = 0; i < n; ++i) coords.push_back(mgr->vivaldi_->Coord(i));
      break;
    }
    case CoordMode::kMds: {
      coords = ClassicalMds(lat, params.spec.vector_dims(), rng);
      break;
    }
  }

  mgr->space_ = std::make_unique<CostSpace>(params.spec, n);
  for (NodeId i = 0; i < n; ++i) {
    Status st = mgr->space_->SetVectorCoord(i, coords[i]);
    if (!st.ok()) return st;
  }
  return mgr;
}

void CoordinateManager::SetScalarMetric(NodeId n, double raw) {
  // Dimension 0 is CPU load by convention of LatencyAndLoad; additional
  // scalar dims (if any) default to the same metric.
  for (size_t i = 0; i < params_.spec.num_scalar_dims(); ++i) {
    space_->SetScalarMetric(n, i, raw);
  }
}

void CoordinateManager::BuildIndex(const std::vector<NodeId>& overlay_nodes) {
  // Bring-up publishes every overlay node through the refresh scratch and
  // sizes all of it, index scratch included, for every later refresh (the
  // overlay never outgrows its initial nodes).
  const size_t m = overlay_nodes.size();
  publish_nodes_ = overlay_nodes;
  dirty_.reserve(m);
  disp_scratch_.reserve(m);
  full_block_.Reset(params_.spec.total_dims(), m);
  space_->FullCoordsInto(overlay_nodes.data(), m, &full_block_);
  // The quantizer box spans the vector part of all nodes plus the maximum
  // scalar penalty range observed at full load, so republished coordinates
  // under any load stay inside the box.
  std::vector<Vec> box_points;
  box_points.reserve(m + 1);
  for (size_t k = 0; k < m; ++k) box_points.push_back(full_block_.NodeVec(k));
  {
    // Add synthetic corner points with worst-case scalar penalty.
    Vec worst = box_points[0];
    for (size_t d = params_.spec.vector_dims(); d < worst.dims(); ++d) {
      const size_t scalar_i = d - params_.spec.vector_dims();
      worst[d] = params_.spec.scalar_dim(scalar_i).weighting->Apply(1.0);
    }
    box_points.push_back(worst);
  }
  index_ = std::make_unique<dht::CoordinateIndex>(
      dht::HilbertQuantizer::FitTo(box_points, kHilbertBits));
  index_->Reserve(m);
  PublishBatch();
}

void CoordinateManager::PublishBatch() {
  index_->PublishAll(publish_nodes_, full_block_);
  refresh_stats_.ring_batches = index_->ring().rejoin_batches();
}

void CoordinateManager::UpdateCoordinatesOnline(
    const net::LatencyView& live, size_t samples_per_node,
    const std::vector<bool>& alive, Rng* rng) {
  if (vivaldi_ == nullptr) return;
  const size_t n = space_->NumNodes();
  if (n < 2) return;
  // Fewer than two alive nodes means no measurable pair (and the peer
  // rejection loop below would never terminate).
  if (static_cast<size_t>(std::count(alive.begin(), alive.end(), true)) < 2) {
    return;
  }

  // One serial sweep in node index order, drawing from the shared Rng in
  // the legacy order (crashed nodes neither measure nor answer probes): a
  // sample against a lower peer sees that peer's fully-updated epoch state
  // and a sample against a higher peer sees its epoch-start state.
  for (NodeId self = 0; self < n; ++self) {
    if (!alive[self]) continue;
    for (size_t s = 0; s < samples_per_node; ++s) {
      NodeId peer;
      do {
        peer = static_cast<NodeId>(rng->UniformInt(n));
      } while (peer == self || !alive[peer]);
      double rtt = live.Latency(self, peer);
      if (kVivaldiRun.rtt_noise_sigma > 0.0) {
        rtt *= std::exp(rng->Normal(0.0, kVivaldiRun.rtt_noise_sigma));
      }
      vivaldi_->Update(self, peer, rtt);
    }
  }

  space_->SyncVectorFrom(vivaldi_->coords());
}

void CoordinateManager::ScanDisplaced(
    const std::vector<NodeId>& overlay_nodes, double epsilon) {
  const double eps2 = epsilon * epsilon;
  const size_t m = overlay_nodes.size();
  // Gather every overlay node's full coordinate into positional SoA lanes,
  // then diff lane-wise against the index's published block and flag the
  // slots displaced beyond epsilon. Per slot the squared displacement
  // accumulates dims-ascending — bitwise the order the per-Vec
  // DistanceSquaredTo scan used.
  dirty_.assign(m, 0);
  full_block_.Reset(params_.spec.total_dims(), m);
  disp_scratch_.resize(m);
  space_->FullCoordsInto(overlay_nodes.data(), m, &full_block_);
  kernels::DisplacementSquared(full_block_, index_->published_coords(),
                               overlay_nodes.data(), m, disp_scratch_.data());
  for (size_t k = 0; k < m; ++k) {
    // Strictly-greater: epsilon 0 republishes any changed coordinate and
    // skips bit-identical ones (the ring state is the same either way).
    dirty_[k] = disp_scratch_[k] > eps2;
  }
}

void CoordinateManager::RefreshIndex(const std::vector<NodeId>& overlay_nodes,
                                     double epsilon) {
  refresh_stats_.refreshes += 1;
  ScanDisplaced(overlay_nodes, epsilon);
  // Compact the displaced slots to the front of full_block_, lane by lane,
  // keeping node order, and republish them as one ring batch. Slot k moves
  // to slot w <= k, so the compaction runs in place without branches.
  const size_t m = overlay_nodes.size();
  publish_nodes_.resize(m);
  size_t republished = 0;
  for (size_t k = 0; k < m; ++k) {
    publish_nodes_[republished] = overlay_nodes[k];
    republished += dirty_[k];
  }
  publish_nodes_.resize(republished);
  for (size_t d = 0; d < full_block_.dims(); ++d) {
    double* lane = full_block_.lane(d);
    size_t w = 0;
    for (size_t k = 0; k < m; ++k) {
      lane[w] = lane[k];
      w += dirty_[k];
    }
  }
  PublishBatch();
  refresh_stats_.skipped += m - republished;
  refresh_stats_.republished += republished;
  if (republished == 0) refresh_stats_.quiet_refreshes += 1;
}

void CoordinateManager::ApplyRemoteSample(NodeId self, NodeId peer,
                                          const Vec& peer_coord,
                                          double peer_error, double rtt_ms) {
  if (vivaldi_ == nullptr) return;
  vivaldi_->UpdateAgainst(self, peer, peer_coord, peer_error, rtt_ms);
}

void CoordinateManager::SyncVectorCoords() {
  if (vivaldi_ == nullptr) return;
  space_->SyncVectorFrom(vivaldi_->coords());
}

void CoordinateManager::CollectDisplaced(
    const std::vector<NodeId>& overlay_nodes, double epsilon,
    std::vector<NodeId>* out) {
  ScanDisplaced(overlay_nodes, epsilon);
  for (size_t k = 0; k < overlay_nodes.size(); ++k) {
    if (dirty_[k]) out->push_back(overlay_nodes[k]);
  }
}

void CoordinateManager::Withdraw(NodeId n) {
  // Ring Leave: the index must stop returning the dead node immediately so
  // repair placement cannot land replacements on it.
  index_->Withdraw(n);
}

void CoordinateManager::Publish(std::span<const NodeId> nodes) {
  const size_t count = nodes.size();
  const size_t dims = params_.spec.total_dims();
  if (count > publish_nodes_.capacity()) {
    // A message-mode batch can outgrow the overlay (a node published more
    // than once): all the publish scratch grows at once, geometrically.
    const size_t batch = std::max(count, 2 * publish_nodes_.capacity());
    publish_nodes_.reserve(batch);
    full_block_.Reset(dims, batch);
    index_->Reserve(batch);
  }
  publish_nodes_.assign(nodes.begin(), nodes.end());
  full_block_.Reset(dims, count);
  space_->FullCoordsInto(nodes.data(), count, &full_block_);
  PublishBatch();
}

}  // namespace sbon::coords
