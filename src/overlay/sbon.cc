#include "overlay/sbon.h"

#include <algorithm>
#include <utility>

namespace sbon::overlay {

Sbon::Sbon(net::Topology topo, Options options)
    : topo_(std::move(topo)), options_(std::move(options)),
      rng_(options_.seed) {}

StatusOr<std::unique_ptr<Sbon>> Sbon::Create(net::Topology topo,
                                             Options options) {
  if (topo.NumNodes() == 0) {
    return Status::InvalidArgument("empty topology");
  }
  if (!topo.IsConnected()) {
    return Status::InvalidArgument("topology must be connected");
  }
  if (options.latency_jitter_sigma < 0.0) {
    return Status::InvalidArgument("latency_jitter_sigma must be >= 0");
  }
  if (options.space_spec.total_dims() *
              coords::CoordinateManager::kHilbertBits +
          dht::ChordRing::kNodeBits >
      128) {
    // A ring key is a U128: the total_dims * kHilbertBits bits of the
    // coordinate's Hilbert point above the node id.
    return Status::InvalidArgument(
        "space_spec.total_dims() * kHilbertBits + 32 must be <= 128");
  }
  if (net::NetworkFabric::Resolve(options.fabric_mode, topo.NumNodes()) !=
          net::NetworkFabric::BaseMode::kDense &&
      options.coord_mode != coords::CoordMode::kVivaldi) {
    // MDS / true coordinates are centralized O(n^2) ablation solves; running
    // them against a generative substrate would just rebuild the dense
    // matrix pair read by read.
    return Status::InvalidArgument(
        "sparse fabric requires Vivaldi coordinates");
  }
  std::unique_ptr<Sbon> s(new Sbon(std::move(topo), std::move(options)));
  Status st = s->Initialize();
  if (!st.ok()) return st;
  return s;
}

Status Sbon::Initialize() {
  const size_t n = topo_.NumNodes();
  overlay_nodes_ = topo_.OverlayNodes();
  if (overlay_nodes_.empty()) {
    return Status::InvalidArgument("no overlay-eligible nodes");
  }
  alive_.assign(n, true);

  // Substrate bring-up order is load-bearing: each step consumes the shared
  // Rng in the exact sequence the monolithic Initialize always did (jitter
  // seed, Vivaldi gossip, ambient load), so fixed-seed overlays are
  // bit-identical across the decomposition — and across fabric base
  // modes, which share the same one-draw-iff-jitter contract.
  net::NetworkFabric::Options fabric_options;
  fabric_options.base_mode = options_.fabric_mode;
  fabric_ = std::make_unique<net::NetworkFabric>(
      topo_, options_.latency_jitter_sigma, &rng_, fabric_options);

  coords::CoordinateManager::Params cp;
  cp.spec = options_.space_spec;
  cp.mode = options_.coord_mode;
  auto coords = coords::CoordinateManager::Build(cp, fabric_->live(), &rng_);
  if (!coords.ok()) return coords.status();
  coords_ = std::move(coords.value());

  load_model_ = std::make_unique<net::LoadModel>(n, options_.load_params,
                                                 &rng_);
  ledger_ = std::make_unique<ServiceLedger>(n, kLoadPerBytePerS);
  UpdateScalarMetrics();

  // Coordinate index over *overlay* nodes' full coordinates.
  coords_->BuildIndex(overlay_nodes_);
  return Status::OK();
}

double Sbon::TotalLoad(NodeId n) const {
  return std::clamp(load_model_->load(n) + ledger_->service_load(n), 0.0,
                    1.0);
}

void Sbon::SetBaseLoad(NodeId n, double load) {
  load_model_->SetLoad(n, load);
  UpdateScalarMetrics();
}

void Sbon::UpdateScalarMetrics() {
  // Vector-only cost spaces have nothing to bridge; skip the O(n) sweep.
  if (options_.space_spec.num_scalar_dims() == 0) return;
  for (NodeId n = 0; n < topo_.NumNodes(); ++n) {
    coords_->SetScalarMetric(n, TotalLoad(n));
  }
}

void Sbon::UpdateTouchedScalarMetrics() {
  for (NodeId n : ledger_->touched_hosts()) {
    coords_->SetScalarMetric(n, TotalLoad(n));
  }
}

StatusOr<CircuitId> Sbon::InstallCircuit(Circuit circuit) {
  auto id = ledger_->InstallCircuit(std::move(circuit), alive_);
  // The load book changed on success *and* on a rolled-back failure (the
  // rollback restores snapshots of hosts it touched); re-derive those
  // hosts' scalar metrics either way so the cost space never goes stale.
  UpdateTouchedScalarMetrics();
  return id;
}

Status Sbon::RemoveCircuit(CircuitId id) {
  Status st = ledger_->RemoveCircuit(id);
  if (!st.ok()) return st;
  UpdateTouchedScalarMetrics();
  return Status::OK();
}

Status Sbon::MigrateService(ServiceInstanceId id, NodeId new_host) {
  Status st = ledger_->MigrateService(id, new_host, alive_);
  if (!st.ok()) return st;
  UpdateTouchedScalarMetrics();
  return Status::OK();
}

Status Sbon::CheckChurnTarget(NodeId n) const {
  if (n >= topo_.NumNodes()) {
    return Status::OutOfRange("churn target out of range");
  }
  if (!topo_.overlay_eligible(n)) {
    return Status::InvalidArgument("only overlay nodes participate in churn");
  }
  return Status::OK();
}

StatusOr<FailureReport> Sbon::FailNode(NodeId n) {
  Status st = CheckChurnTarget(n);
  if (!st.ok()) return st;
  if (!alive_[n]) return Status::FailedPrecondition("node already down");
  if (overlay_nodes_.size() <= 1) {
    return Status::FailedPrecondition("cannot fail the last alive node");
  }
  alive_[n] = false;
  overlay_nodes_.erase(
      std::find(overlay_nodes_.begin(), overlay_nodes_.end(), n));

  FailureReport report = ledger_->EvictHost(n);
  // Ring Leave: the index must stop returning the dead node immediately so
  // repair placement cannot land replacements on it.
  coords_->Withdraw(n);
  // Live latencies involving the dead node read +inf until it rejoins (the
  // fabric's pinned dead-endpoint semantic) instead of stale pre-crash
  // values; message delivery and cost reads both see it as unreachable.
  fabric_->SetEndpointDown(n, true);
  UpdateScalarMetrics();
  return report;
}

Status Sbon::RejoinNode(NodeId n) {
  Status st = CheckChurnTarget(n);
  if (!st.ok()) return st;
  if (alive_[n]) return Status::FailedPrecondition("node already alive");
  alive_[n] = true;
  overlay_nodes_.insert(
      std::upper_bound(overlay_nodes_.begin(), overlay_nodes_.end(), n), n);
  fabric_->SetEndpointDown(n, false);
  UpdateScalarMetrics();
  // Ring Join: republish the full coordinate (stale vector part + fresh
  // load scalar) so placement sees the node again.
  coords_->Publish({&n, 1});
  return Status::OK();
}

Status Sbon::CrashEndpoint(NodeId n) {
  Status st = CheckChurnTarget(n);
  if (!st.ok()) return st;
  if (!alive_[n]) return Status::FailedPrecondition("node already down");
  if (fabric_->EndpointDown(n)) {
    return Status::FailedPrecondition("endpoint already dark");
  }
  // No overlay/ring/ledger transition and no scalar-metric refresh: the
  // failure is invisible until a detector (or FailNode) acts on it.
  fabric_->SetEndpointDown(n, true);
  return Status::OK();
}

Status Sbon::RestoreEndpoint(NodeId n) {
  Status st = CheckChurnTarget(n);
  if (!st.ok()) return st;
  if (!alive_[n]) {
    return Status::FailedPrecondition(
        "node fully failed; use RejoinNode instead");
  }
  if (!fabric_->EndpointDown(n)) {
    return Status::FailedPrecondition("endpoint is not dark");
  }
  fabric_->SetEndpointDown(n, false);
  return Status::OK();
}

Status Sbon::BeginPartition(const std::vector<NodeId>& group, double factor) {
  return fabric_->BeginPartition(group, factor);
}

Status Sbon::EndPartition() { return fabric_->EndPartition(); }

void Sbon::Tick(double dt) {
  load_model_->Step(dt, &rng_);
  UpdateScalarMetrics();
}

void Sbon::TickNetwork() { fabric_->TickNetwork(&rng_); }

void Sbon::UpdateCoordinatesOnline(size_t samples_per_node) {
  coords_->UpdateCoordinatesOnline(fabric_->live(), samples_per_node, alive_,
                                   &rng_);
}

void Sbon::RefreshIndex(double epsilon) {
  coords_->RefreshIndex(overlay_nodes_, epsilon);
}

StatusOr<CircuitCost> Sbon::CircuitCostOf(CircuitId id) const {
  const Circuit* c = ledger_->FindCircuit(id);
  if (c == nullptr) return Status::NotFound("no such circuit");
  return ComputeCircuitCost(*c, fabric_->live(), &coords_->space());
}

double Sbon::TotalNetworkUsage() const {
  double total = 0.0;
  for (const auto& [id, c] : ledger_->circuits()) {
    auto cost = ComputeCircuitCost(c, fabric_->live(), nullptr);
    if (cost.ok()) total += cost->network_usage;
  }
  return total;
}

double Sbon::MaxLoad() const {
  double mx = 0.0;
  for (NodeId n : overlay_nodes_) mx = std::max(mx, TotalLoad(n));
  return mx;
}

}  // namespace sbon::overlay
