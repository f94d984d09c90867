#include "net/fabric.h"

#include <limits>

namespace sbon::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Largest n kAuto keeps the dense matrix at: above it an n x n double
// matrix starts crowding out everything else.
constexpr size_t kDenseAutoMaxNodes = 4096;
// Largest n kSparse resolves to exact rows at; the landmark sketch above.
constexpr size_t kExactMaxNodes = 2048;
}  // namespace

NetworkFabric::BaseMode NetworkFabric::Resolve(BaseMode mode, size_t n) {
  if (mode == BaseMode::kAuto) {
    if (n <= kDenseAutoMaxNodes) return BaseMode::kDense;
    mode = BaseMode::kSparse;
  }
  if (mode != BaseMode::kSparse) return mode;
  return n <= kExactMaxNodes ? BaseMode::kExact : BaseMode::kSketch;
}

NetworkFabric::NetworkFabric(const Topology& topo, double jitter_sigma,
                             Rng* rng, Options options)
    : n_(topo.NumNodes()),
      sigma_(jitter_sigma),
      options_(options),
      mode_(Resolve(options.base_mode, n_)),
      live_view_(this, /*live=*/true),
      base_view_(this, /*live=*/false) {
  down_.assign(n_, 0);
  if (mode_ == BaseMode::kDense) {
    matrix_ = std::make_unique<LatencyMatrix>(topo);
  } else {
    topo_ = topo;
    if (options_.neighbor_cache_slots > 0) {
      neighbor_cache_.resize(n_ * options_.neighbor_cache_slots);
    }
  }
  if (mode_ == BaseMode::kSketch) PlaceLandmarks();
  if (mode_ == BaseMode::kExact) {
    const size_t rows =
        options_.row_cache_rows < n_ ? options_.row_cache_rows : n_;
    row_cache_.resize(rows < 1 ? 1 : rows);
  }
  // Exactly one draw iff jitter is attached, in every base mode, so
  // fixed-seed overlays agree on every subsequent draw across modes.
  if (sigma_ > 0.0) epoch_seed_ = rng->Next();
}

void NetworkFabric::TickNetwork(Rng* rng) {
  if (sigma_ <= 0.0) return;
  epoch_seed_ = rng->Next();
  jitter_applied_ = true;
}

Status NetworkFabric::BeginPartition(const std::vector<NodeId>& group,
                                     double factor) {
  if (partition_active_) {
    return Status::FailedPrecondition("a partition is already active");
  }
  if (group.empty()) return Status::InvalidArgument("empty partition group");
  if (factor < 1.0) {
    return Status::InvalidArgument("partition factor must be >= 1");
  }
  partitioned_.assign(n_, false);
  for (NodeId n : group) {
    if (n >= n_) {
      return Status::OutOfRange("partition member out of range");
    }
    partitioned_[n] = true;
  }
  partition_active_ = true;
  partition_factor_ = factor;
  return Status::OK();
}

Status NetworkFabric::EndPartition() {
  if (!partition_active_) {
    return Status::FailedPrecondition("no active partition");
  }
  partition_active_ = false;
  // Healing restores the *current* jitter epoch (it is not a new one, so
  // no draw). On a jittered overlay that was never ticked this is the first
  // time the construction-epoch factors apply: live != base afterwards.
  if (sigma_ > 0.0) jitter_applied_ = true;
  return Status::OK();
}

double NetworkFabric::ResolveBase(NodeId row, NodeId col) const {
  ++stats_.base_reads;
  const bool exact = mode_ == BaseMode::kExact;
  const size_t slots = options_.neighbor_cache_slots;
  if (slots == 0) return exact ? RowFor(row)[col] : SketchBase(row, col);
  NeighborSlot& slot =
      neighbor_cache_[static_cast<size_t>(row) * slots + col % slots];
  if (slot.peer == col) {
    ++stats_.neighbor_hits;
    return slot.value;
  }
  const double v = exact ? RowFor(row)[col] : SketchBase(row, col);
  slot.peer = col;
  slot.value = v;
  return v;
}

double NetworkFabric::SketchBase(NodeId a, NodeId b) const {
  // Upper bound by triangle inequality, exact when a shortest path crosses a
  // landmark. Symmetric in (a, b): addition is commutative and the landmark
  // walk order is fixed, so both argument orders see identical fp ops.
  double best = kInf;
  for (const std::vector<double>& row : landmark_rows_) {
    const double via = row[a] + row[b];
    if (via < best) best = via;
  }
  return best;
}

const std::vector<double>& NetworkFabric::RowFor(NodeId row) const {
  CachedRow* victim = &row_cache_[0];
  for (CachedRow& c : row_cache_) {
    if (c.row == row) {
      ++stats_.row_hits;
      c.stamp = ++row_stamp_;
      return c.dist;
    }
    if (c.stamp < victim->stamp) victim = &c;
  }
  ++stats_.row_builds;
  victim->dist = DijkstraLatencies(topo_, row);
  victim->row = row;
  victim->stamp = ++row_stamp_;
  return victim->dist;
}

void NetworkFabric::PlaceLandmarks() {
  // Deterministic farthest-point traversal from node 0: each new landmark is
  // the node farthest (first-index tie-break) from the landmark set so far.
  // No Rng involved — landmark placement must not perturb the caller's draw
  // sequence, which is pinned by the construction draw contract.
  const size_t want =
      options_.num_landmarks < 1
          ? 1
          : (options_.num_landmarks < n_ ? options_.num_landmarks : n_);
  landmarks_.reserve(want);
  landmark_rows_.reserve(want);
  std::vector<double> min_dist(n_, kInf);
  NodeId next = 0;
  for (size_t k = 0; k < want; ++k) {
    landmarks_.push_back(next);
    landmark_rows_.push_back(DijkstraLatencies(topo_, next));
    const std::vector<double>& row = landmark_rows_.back();
    NodeId farthest = kInvalidNode;
    double far_d = -1.0;
    for (NodeId i = 0; i < n_; ++i) {
      if (row[i] < min_dist[i]) min_dist[i] = row[i];
      // Unreachable nodes (inf) are the farthest of all: the next landmark
      // lands in their component and covers it.
      if (min_dist[i] > far_d && min_dist[i] > 0.0) {
        far_d = min_dist[i];
        farthest = i;
      }
    }
    if (farthest == kInvalidNode || far_d == 0.0) break;  // n small: covered
    next = farthest;
  }
}

}  // namespace sbon::net
