#ifndef SBON_OVERLAY_SERVICE_LEDGER_H_
#define SBON_OVERLAY_SERVICE_LEDGER_H_

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "overlay/circuit.h"
#include "overlay/service.h"

namespace sbon::overlay {

/// What one node failure changed: the circuits left broken (they lost a
/// hosted service instance or a pinned endpoint) and the instances evicted.
struct FailureReport {
  /// Circuits needing repair, ascending id, deduplicated. A circuit appears
  /// here if the dead node hosted one of its service instances (including
  /// instances it reused from another circuit) or one of its pinned
  /// endpoints (producer/consumer).
  std::vector<CircuitId> orphaned;
  size_t services_evicted = 0;
};

/// The deployment substrate of the overlay: every registered circuit, every
/// deployed service instance (with its reuse-signature catalog), and the
/// load book — the per-node service-induced CPU load that installation
/// adds, removal reverses, migration moves, and crash eviction zeroes.
///
/// One of the three substrates `overlay::Sbon` composes (alongside
/// net::NetworkFabric and coords::CoordinateManager). The ledger is pure
/// bookkeeping: it knows nothing of latencies, coordinates, or the index —
/// after every mutating call the composition root re-derives the cost-space
/// scalar metrics of the hosts that call touched (`touched_hosts()`).
///
/// Load-book invariant (what the unit tests pin): the book equals the sum
/// of each hosted instance's input rate times the load factor, at
/// all times, and returns to exactly zero once every circuit is gone.
///
/// Two indexes keep Submit and Remove O(circuit): the signature catalog
/// (reuse signature -> instances, in deployment order) and the circuit
/// index (circuit -> the instances listing it in `circuits`, ascending
/// id). Install, dependency-chain attachment, removal and crash eviction
/// maintain both; migration changes neither. Removal visits only the
/// circuit's indexed instances, in ascending id — the order a scan of
/// `services()` meets them — so the load book's floating-point history is
/// what a full scan would produce.
class ServiceLedger {
 public:
  /// `num_nodes` sizes the load book; `load_per_byte_per_s` converts an
  /// instance's input rate into host CPU load.
  ServiceLedger(size_t num_nodes, double load_per_byte_per_s);

  ServiceLedger(const ServiceLedger&) = delete;
  ServiceLedger& operator=(const ServiceLedger&) = delete;

  /// Deploys a fully placed circuit: creates (or attaches to) service
  /// instances, adds load, and registers the circuit. Returns its id.
  /// `alive` (indexed by node id) rejects circuits referencing dead hosts.
  /// Failure-atomic: if any mid-install step fails (missing reused
  /// instance, broken dependency chain), every service instance and load
  /// delta created so far is released and the ledger is left exactly as it
  /// was before the call.
  StatusOr<CircuitId> InstallCircuit(Circuit circuit,
                                     const std::vector<bool>& alive);
  /// Tears a circuit down, releasing service instances with no users left.
  Status RemoveCircuit(CircuitId id);

  /// Moves a service instance to a new host, updating load accounting and
  /// the vertices of every circuit bound to it.
  Status MigrateService(ServiceInstanceId id, NodeId new_host,
                        const std::vector<bool>& alive);

  /// The FailNode eviction path: releases every instance hosted on `n`
  /// (reversing its load delta), zeroes the node's load-book entry (a node
  /// with no services carries no service load — exact books for a later
  /// rejoin), and reports the circuits the failure orphaned: users of
  /// evicted instances plus circuits with a pinned endpoint on `n`. The
  /// circuits themselves stay registered — callers (the engine's repair
  /// plan) decide whether to re-place or drop them.
  FailureReport EvictHost(NodeId n);

  const Circuit* FindCircuit(CircuitId id) const;
  const std::map<CircuitId, Circuit>& circuits() const { return circuits_; }
  const ServiceInstance* FindService(ServiceInstanceId id) const;
  const std::map<ServiceInstanceId, ServiceInstance>& services() const {
    return services_;
  }
  /// Deployed instances whose reuse signature matches, in deployment
  /// order. The view is valid until the ledger next changes.
  std::span<const ServiceInstance* const> ServicesWithSignature(
      uint64_t signature) const;
  /// The circuit index: every circuit that some instance lists in its
  /// `circuits`, mapped to those instances' ids, ascending. Circuits no
  /// instance lists have no entry.
  const std::map<CircuitId, std::vector<ServiceInstanceId>>&
  services_by_circuit() const {
    return services_by_circuit_;
  }
  size_t NumServices() const { return services_.size(); }

  /// Service-induced CPU load currently booked against node `n`.
  double service_load(NodeId n) const { return service_load_[n]; }
  const std::vector<double>& service_loads() const { return service_load_; }
  /// Sum of the whole load book (the tests' sum-to-zero audit hook).
  double TotalServiceLoad() const;
  /// Every host whose load-book entry the last InstallCircuit (including a
  /// rolled-back one), RemoveCircuit, MigrateService or EvictHost call
  /// wrote, in write order and possibly repeated: the only nodes whose
  /// total load that call can have changed. Valid until the next of them.
  std::span<const NodeId> touched_hosts() const { return touched_hosts_; }

 private:
  Status AttachDependencyChain(CircuitId circuit_id, ServiceInstanceId root);
  /// Appends `circuit_id` to `inst`'s user list and indexes the pair.
  void AddUser(ServiceInstance* inst, CircuitId circuit_id);
  /// Removes `circuit_id` from the user list of every instance the circuit
  /// index names for it, in ascending id, releasing instances left without
  /// users (their load deltas included), and drops the circuit's entry.
  /// Shared by RemoveCircuit and the InstallCircuit failure rollback.
  void DetachCircuitFromServices(CircuitId circuit_id);
  /// Releases one instance: reverses its load delta, drops its signature
  /// and circuit-index entries, erases it. Returns the iterator past the
  /// erased instance. The single release path shared by detach and crash
  /// eviction.
  std::map<ServiceInstanceId, ServiceInstance>::iterator EraseService(
      std::map<ServiceInstanceId, ServiceInstance>::iterator it);
  /// Adds (sign +1) or reverses (-1) an instance's load on `host` and
  /// records the host in `touched_hosts_`.
  void ApplyServiceLoadDelta(NodeId host, double input_bytes_per_s,
                             double sign);

  double load_per_byte_per_s_;
  std::vector<double> service_load_;
  std::map<CircuitId, Circuit> circuits_;
  std::map<ServiceInstanceId, ServiceInstance> services_;
  // Signature catalog; empty buckets are erased.
  std::map<uint64_t, std::vector<const ServiceInstance*>>
      services_by_signature_;
  // Circuit index; lists ascending, empty lists erased.
  std::map<CircuitId, std::vector<ServiceInstanceId>> services_by_circuit_;
  // Hosts the mutating call in flight wrote (see touched_hosts()).
  std::vector<NodeId> touched_hosts_;
  // InstallCircuit's rollback snapshots: (host, load before its delta).
  // Kept across calls so an install reuses its capacity.
  std::vector<std::pair<NodeId, double>> prior_loads_;
  CircuitId next_circuit_id_ = 1;
  ServiceInstanceId next_service_id_ = 1;
};

}  // namespace sbon::overlay

#endif  // SBON_OVERLAY_SERVICE_LEDGER_H_
