#include "overlay/service_ledger.h"

#include <algorithm>
#include <set>
#include <utility>

namespace sbon::overlay {

ServiceLedger::ServiceLedger(size_t num_nodes, double load_per_byte_per_s)
    : load_per_byte_per_s_(load_per_byte_per_s),
      service_load_(num_nodes, 0.0) {}

void ServiceLedger::ApplyServiceLoadDelta(NodeId host,
                                          double input_bytes_per_s,
                                          double sign) {
  touched_hosts_.push_back(host);
  service_load_[host] =
      std::max(0.0, service_load_[host] +
                        sign * input_bytes_per_s * load_per_byte_per_s_);
}

double ServiceLedger::TotalServiceLoad() const {
  double total = 0.0;
  for (double l : service_load_) total += l;
  return total;
}

StatusOr<CircuitId> ServiceLedger::InstallCircuit(
    Circuit circuit, const std::vector<bool>& alive) {
  touched_hosts_.clear();
  if (!circuit.FullyPlaced()) {
    return Status::FailedPrecondition("cannot install unplaced circuit");
  }
  for (const CircuitVertex& v : circuit.vertices()) {
    if (!alive[v.host]) {
      return Status::FailedPrecondition("circuit references a dead host");
    }
  }
  // Reserve the id but commit the counter only on success, so a failed
  // install leaves no gap in the id sequence (deterministic replays).
  const CircuitId id = next_circuit_id_;
  circuit.set_id(id);

  // Rollback on mid-install failure: instances created here carry only this
  // circuit id, and pre-existing instances gained at most a reference to it,
  // so detaching the id releases exactly the partial state. Service loads of
  // touched hosts are restored from snapshots rather than by re-subtracting
  // deltas, because (x + d) - d is not exact in floating point and the
  // ledger must be left bit-identical to its pre-call state.
  const ServiceInstanceId first_new_service = next_service_id_;
  prior_loads_.clear();
  auto fail = [&](Status st) -> StatusOr<CircuitId> {
    DetachCircuitFromServices(id);
    for (auto it = prior_loads_.rbegin(); it != prior_loads_.rend(); ++it) {
      service_load_[it->first] = it->second;
    }
    next_service_id_ = first_new_service;
    return st;
  };

  for (int i = 0; i < static_cast<int>(circuit.NumVertices()); ++i) {
    CircuitVertex& v = circuit.mutable_vertex(i);
    if (v.pinned) continue;
    if (v.reused) {
      if (v.service != kInvalidService) {
        if (services_.find(v.service) == services_.end()) {
          return fail(
              Status::NotFound("reused service instance does not exist"));
        }
        // Attach this circuit to the instance *and* to every instance in
        // its feeding subtree, so tearing down the source circuit cannot
        // orphan the data path this circuit now depends on.
        Status st = AttachDependencyChain(id, v.service);
        if (!st.ok()) return fail(st);
      }
      continue;  // nothing deployed for reused subtrees
    }
    ServiceInstance inst;
    inst.id = next_service_id_++;
    inst.signature = circuit.plan().OpSignature(i);
    inst.kind = circuit.plan().op(i).kind;
    inst.host = v.host;
    inst.input_bytes_per_s = circuit.PhysicalInputRate(i);
    inst.output_bytes_per_s = circuit.plan().op(i).out_bytes_per_s;
    v.service = inst.id;
    prior_loads_.emplace_back(v.host, service_load_[v.host]);
    ApplyServiceLoadDelta(v.host, inst.input_bytes_per_s, +1.0);
    ServiceInstance& placed =
        services_.emplace(inst.id, std::move(inst)).first->second;
    services_by_signature_[placed.signature].push_back(&placed);
    AddUser(&placed, id);
  }
  next_circuit_id_ = id + 1;
  circuits_.emplace(id, std::move(circuit));
  return id;
}

Status ServiceLedger::AttachDependencyChain(CircuitId circuit_id,
                                            ServiceInstanceId root) {
  std::vector<ServiceInstanceId> stack{root};
  std::set<ServiceInstanceId> visited;
  while (!stack.empty()) {
    const ServiceInstanceId sid = stack.back();
    stack.pop_back();
    if (!visited.insert(sid).second) continue;
    auto it = services_.find(sid);
    if (it == services_.end()) {
      return Status::NotFound("dependency instance missing");
    }
    ServiceInstance& inst = it->second;
    if (std::find(inst.circuits.begin(), inst.circuits.end(), circuit_id) ==
        inst.circuits.end()) {
      AddUser(&inst, circuit_id);
    }
    // Find the instance's feeding services through any circuit that
    // deploys it: the services bound to the descendants of its vertex.
    for (CircuitId cid : inst.circuits) {
      if (cid == circuit_id) continue;
      auto cit = circuits_.find(cid);
      if (cit == circuits_.end()) continue;
      const Circuit& src = cit->second;
      for (int vi = 0; vi < static_cast<int>(src.NumVertices()); ++vi) {
        if (src.vertex(vi).service != sid) continue;
        // Walk descendants of vi collecting bound services.
        const query::ChildList& top = src.plan().op(vi).children;
        std::vector<int> vstack(top.begin(), top.end());
        while (!vstack.empty()) {
          const int d = vstack.back();
          vstack.pop_back();
          const CircuitVertex& dv = src.vertex(d);
          if (dv.service != kInvalidService) stack.push_back(dv.service);
          for (int ch : src.plan().op(d).children) vstack.push_back(ch);
        }
        break;
      }
    }
  }
  return Status::OK();
}

void ServiceLedger::AddUser(ServiceInstance* inst, CircuitId circuit_id) {
  inst->circuits.push_back(circuit_id);
  std::vector<ServiceInstanceId>& ids = services_by_circuit_[circuit_id];
  ids.insert(std::upper_bound(ids.begin(), ids.end(), inst->id), inst->id);
}

std::map<ServiceInstanceId, ServiceInstance>::iterator
ServiceLedger::EraseService(
    std::map<ServiceInstanceId, ServiceInstance>::iterator it) {
  const ServiceInstance& inst = it->second;
  ApplyServiceLoadDelta(inst.host, inst.input_bytes_per_s, -1.0);
  auto bucket = services_by_signature_.find(inst.signature);
  bucket->second.erase(
      std::find(bucket->second.begin(), bucket->second.end(), &inst));
  if (bucket->second.empty()) services_by_signature_.erase(bucket);
  for (CircuitId cid : inst.circuits) {
    auto entry = services_by_circuit_.find(cid);
    std::vector<ServiceInstanceId>& ids = entry->second;
    ids.erase(std::lower_bound(ids.begin(), ids.end(), inst.id));
    if (ids.empty()) services_by_circuit_.erase(entry);
  }
  return services_.erase(it);
}

void ServiceLedger::DetachCircuitFromServices(CircuitId circuit_id) {
  auto entry = services_by_circuit_.find(circuit_id);
  if (entry == services_by_circuit_.end()) return;
  // Instances released here have no users left, so EraseService leaves
  // every circuit-index list, this one included, untouched.
  for (ServiceInstanceId sid : entry->second) {
    auto sit = services_.find(sid);
    ServiceInstance& inst = sit->second;
    inst.circuits.erase(
        std::remove(inst.circuits.begin(), inst.circuits.end(), circuit_id),
        inst.circuits.end());
    if (inst.circuits.empty()) EraseService(sit);
  }
  services_by_circuit_.erase(entry);
}

Status ServiceLedger::RemoveCircuit(CircuitId id) {
  touched_hosts_.clear();
  auto it = circuits_.find(id);
  if (it == circuits_.end()) return Status::NotFound("no such circuit");
  // Detach this circuit from every instance referencing it (vertex bindings
  // plus reuse dependency chains), releasing instances left without users.
  DetachCircuitFromServices(id);
  circuits_.erase(it);
  return Status::OK();
}

const Circuit* ServiceLedger::FindCircuit(CircuitId id) const {
  auto it = circuits_.find(id);
  return it == circuits_.end() ? nullptr : &it->second;
}

const ServiceInstance* ServiceLedger::FindService(ServiceInstanceId id) const {
  auto it = services_.find(id);
  return it == services_.end() ? nullptr : &it->second;
}

std::span<const ServiceInstance* const> ServiceLedger::ServicesWithSignature(
    uint64_t signature) const {
  auto it = services_by_signature_.find(signature);
  if (it == services_by_signature_.end()) return {};
  return it->second;
}

Status ServiceLedger::MigrateService(ServiceInstanceId id, NodeId new_host,
                                     const std::vector<bool>& alive) {
  touched_hosts_.clear();
  auto it = services_.find(id);
  if (it == services_.end()) return Status::NotFound("no such service");
  if (new_host >= service_load_.size()) {
    return Status::OutOfRange("migration target out of range");
  }
  if (!alive[new_host]) {
    return Status::FailedPrecondition("migration target is down");
  }
  ServiceInstance& inst = it->second;
  if (inst.host == new_host) return Status::OK();
  ApplyServiceLoadDelta(inst.host, inst.input_bytes_per_s, -1.0);
  ApplyServiceLoadDelta(new_host, inst.input_bytes_per_s, +1.0);
  inst.host = new_host;
  for (CircuitId cid : inst.circuits) {
    auto cit = circuits_.find(cid);
    if (cit == circuits_.end()) continue;
    for (int i = 0; i < static_cast<int>(cit->second.NumVertices()); ++i) {
      CircuitVertex& v = cit->second.mutable_vertex(i);
      if (v.service == id && !v.pinned) v.host = new_host;
    }
  }
  return Status::OK();
}

FailureReport ServiceLedger::EvictHost(NodeId n) {
  touched_hosts_.clear();
  FailureReport report;
  std::set<CircuitId> orphans;
  // Evict every instance the dead node hosted, reversing the load delta it
  // added (the same ApplyServiceLoadDelta bookkeeping installation used).
  // Every circuit attached to an evicted instance — vertex bindings and
  // reuse dependency chains alike — is orphaned.
  for (auto it = services_.begin(); it != services_.end();) {
    ServiceInstance& inst = it->second;
    if (inst.host != n) {
      ++it;
      continue;
    }
    orphans.insert(inst.circuits.begin(), inst.circuits.end());
    ++report.services_evicted;
    it = EraseService(it);
  }
  // A node with no services left carries no service load; zeroing (instead
  // of trusting delta reversal) keeps the books exact for the rejoin.
  service_load_[n] = 0.0;
  touched_hosts_.push_back(n);
  // Circuits whose pinned endpoints (producer/consumer) sat on the dead
  // node are orphaned too, even though nothing was deployed there.
  for (const auto& [cid, circuit] : circuits_) {
    for (const CircuitVertex& v : circuit.vertices()) {
      if (v.host == n) {
        orphans.insert(cid);
        break;
      }
    }
  }
  report.orphaned.assign(orphans.begin(), orphans.end());
  return report;
}

}  // namespace sbon::overlay
