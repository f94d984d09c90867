// Circuit-index pin of the service ledger. RemoveCircuit visits only the
// instances the circuit index names for the circuit, in ascending id,
// instead of scanning every deployed instance. The reference below is the
// scan-based ledger it replaced, driven through the same randomized
// install / reuse-install / failed-install / remove / crash-evict / migrate
// sequence. After every step the index must equal a full scan of
// `services()`, and the load book, the instances and the signature catalog
// must equal the reference's bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "overlay/circuit.h"
#include "overlay/service_ledger.h"
#include "query/catalog.h"
#include "query/enumerate.h"
#include "query/query_spec.h"

namespace sbon::overlay {
namespace {

constexpr size_t kNodes = 12;
constexpr double kLoadPerByte = 1e-5;

// The scan-based ledger: install, reuse attachment, removal, migration and
// eviction exactly as before the circuit index existed.
class ReferenceLedger {
 public:
  std::vector<double> load = std::vector<double>(kNodes, 0.0);
  std::map<CircuitId, Circuit> circuits;
  std::map<ServiceInstanceId, ServiceInstance> services;
  std::multimap<uint64_t, ServiceInstanceId> by_signature;
  CircuitId next_circuit_id = 1;
  ServiceInstanceId next_service_id = 1;

  bool Install(Circuit circuit, const std::vector<bool>& alive) {
    if (!circuit.FullyPlaced()) return false;
    for (const CircuitVertex& v : circuit.vertices()) {
      if (!alive[v.host]) return false;
    }
    const CircuitId id = next_circuit_id;
    circuit.set_id(id);
    std::vector<double> input_rate(circuit.NumVertices(), 0.0);
    for (const CircuitEdge& e : circuit.edges()) {
      if (e.physical) input_rate[e.to] += e.rate_bytes_per_s;
    }
    const ServiceInstanceId first_new_service = next_service_id;
    std::vector<std::pair<NodeId, double>> prior_loads;
    auto fail = [&] {
      Detach(id);
      for (auto it = prior_loads.rbegin(); it != prior_loads.rend(); ++it) {
        load[it->first] = it->second;
      }
      next_service_id = first_new_service;
      return false;
    };
    for (int i = 0; i < static_cast<int>(circuit.NumVertices()); ++i) {
      CircuitVertex& v = circuit.mutable_vertex(i);
      if (v.pinned) continue;
      if (v.reused) {
        if (v.service != kInvalidService) {
          if (services.find(v.service) == services.end()) return fail();
          if (!AttachChain(id, v.service)) return fail();
        }
        continue;
      }
      ServiceInstance inst;
      inst.id = next_service_id++;
      inst.signature = circuit.plan().OpSignature(i);
      inst.kind = circuit.plan().op(i).kind;
      inst.host = v.host;
      inst.input_bytes_per_s = input_rate[i];
      inst.output_bytes_per_s = circuit.plan().op(i).out_bytes_per_s;
      inst.circuits.push_back(id);
      v.service = inst.id;
      prior_loads.emplace_back(v.host, load[v.host]);
      Delta(v.host, inst.input_bytes_per_s, +1.0);
      by_signature.emplace(inst.signature, inst.id);
      services.emplace(inst.id, std::move(inst));
    }
    next_circuit_id = id + 1;
    circuits.emplace(id, std::move(circuit));
    return true;
  }

  bool Remove(CircuitId id) {
    auto it = circuits.find(id);
    if (it == circuits.end()) return false;
    Detach(id);
    circuits.erase(it);
    return true;
  }

  bool Migrate(ServiceInstanceId id, NodeId new_host,
               const std::vector<bool>& alive) {
    auto it = services.find(id);
    if (it == services.end() || !alive[new_host]) return false;
    ServiceInstance& inst = it->second;
    if (inst.host == new_host) return true;
    Delta(inst.host, inst.input_bytes_per_s, -1.0);
    Delta(new_host, inst.input_bytes_per_s, +1.0);
    inst.host = new_host;
    for (CircuitId cid : inst.circuits) {
      auto cit = circuits.find(cid);
      if (cit == circuits.end()) continue;
      for (int i = 0; i < static_cast<int>(cit->second.NumVertices()); ++i) {
        CircuitVertex& v = cit->second.mutable_vertex(i);
        if (v.service == id && !v.pinned) v.host = new_host;
      }
    }
    return true;
  }

  void Evict(NodeId n) {
    for (auto it = services.begin(); it != services.end();) {
      it = it->second.host == n ? Erase(it) : std::next(it);
    }
    load[n] = 0.0;
  }

 private:
  void Delta(NodeId host, double input, double sign) {
    load[host] = std::max(0.0, load[host] + sign * input * kLoadPerByte);
  }

  bool AttachChain(CircuitId circuit_id, ServiceInstanceId root) {
    std::vector<ServiceInstanceId> stack{root};
    std::set<ServiceInstanceId> visited;
    while (!stack.empty()) {
      const ServiceInstanceId sid = stack.back();
      stack.pop_back();
      if (!visited.insert(sid).second) continue;
      auto it = services.find(sid);
      if (it == services.end()) return false;
      ServiceInstance& inst = it->second;
      if (std::find(inst.circuits.begin(), inst.circuits.end(),
                    circuit_id) == inst.circuits.end()) {
        inst.circuits.push_back(circuit_id);
      }
      for (CircuitId cid : inst.circuits) {
        if (cid == circuit_id) continue;
        auto cit = circuits.find(cid);
        if (cit == circuits.end()) continue;
        const Circuit& src = cit->second;
        for (int vi = 0; vi < static_cast<int>(src.NumVertices()); ++vi) {
          if (src.vertex(vi).service != sid) continue;
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
    return true;
  }

  std::map<ServiceInstanceId, ServiceInstance>::iterator Erase(
      std::map<ServiceInstanceId, ServiceInstance>::iterator it) {
    const ServiceInstance& inst = it->second;
    Delta(inst.host, inst.input_bytes_per_s, -1.0);
    auto range = by_signature.equal_range(inst.signature);
    for (auto r = range.first; r != range.second; ++r) {
      if (r->second == inst.id) {
        by_signature.erase(r);
        break;
      }
    }
    return services.erase(it);
  }

  // The scan: every deployed instance, ascending id.
  void Detach(CircuitId circuit_id) {
    for (auto sit = services.begin(); sit != services.end();) {
      ServiceInstance& inst = sit->second;
      inst.circuits.erase(
          std::remove(inst.circuits.begin(), inst.circuits.end(),
                      circuit_id),
          inst.circuits.end());
      sit = inst.circuits.empty() ? Erase(sit) : std::next(sit);
    }
  }
};

void ExpectSameState(const ServiceLedger& got, const ReferenceLedger& want,
                     size_t step) {
  SCOPED_TRACE(step);
  // The circuit index equals a full scan of the deployed instances.
  std::map<CircuitId, std::vector<ServiceInstanceId>> scanned;
  for (const auto& [sid, inst] : got.services()) {
    for (CircuitId cid : inst.circuits) scanned[cid].push_back(sid);
  }
  ASSERT_EQ(got.services_by_circuit(), scanned);
  // The load book, bit for bit.
  for (NodeId n = 0; n < kNodes; ++n) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got.service_load(n)),
              std::bit_cast<uint64_t>(want.load[n]))
        << "node " << n;
  }
  // Instances and registered circuits.
  ASSERT_EQ(got.services().size(), want.services.size());
  for (const auto& [sid, inst] : want.services) {
    const ServiceInstance* g = got.FindService(sid);
    ASSERT_NE(g, nullptr) << "service " << sid;
    EXPECT_EQ(g->host, inst.host);
    EXPECT_EQ(g->signature, inst.signature);
    EXPECT_EQ(g->circuits, inst.circuits);
    EXPECT_EQ(std::bit_cast<uint64_t>(g->input_bytes_per_s),
              std::bit_cast<uint64_t>(inst.input_bytes_per_s));
  }
  ASSERT_EQ(got.circuits().size(), want.circuits.size());
  for (const auto& [cid, c] : want.circuits) {
    ASSERT_NE(got.FindCircuit(cid), nullptr) << "circuit " << cid;
  }
  // The signature catalog, in deployment order.
  for (auto it = want.by_signature.begin(); it != want.by_signature.end();
       it = want.by_signature.upper_bound(it->first)) {
    std::vector<ServiceInstanceId> want_ids;
    for (auto r = want.by_signature.equal_range(it->first);
         r.first != r.second; ++r.first) {
      want_ids.push_back(r.first->second);
    }
    std::vector<ServiceInstanceId> got_ids;
    for (const ServiceInstance* inst : got.ServicesWithSignature(it->first)) {
      got_ids.push_back(inst->id);
    }
    EXPECT_EQ(got_ids, want_ids);
  }
}

query::Catalog FourStreamCatalog() {
  query::Catalog c;
  c.AddStream("a", 100.0, 64.0, /*producer=*/0);
  c.AddStream("b", 10.0, 128.0, /*producer=*/1);
  c.AddStream("c", 40.0, 32.0, /*producer=*/2);
  c.AddStream("d", 5.0, 256.0, /*producer=*/3);
  return c;
}

// A placed circuit over a random 2-4 stream subset; a fixed selectivity
// makes equal stream sets share signatures, so reuse has targets.
Circuit RandomPlacedCircuit(const query::Catalog& catalog,
                            const std::vector<bool>& alive, Rng* rng) {
  std::vector<StreamId> streams = {0, 1, 2, 3};
  rng->Shuffle(&streams);
  streams.resize(2 + rng->UniformInt(3));
  const query::QuerySpec spec = query::QuerySpec::SimpleJoin(
      streams, static_cast<NodeId>(rng->UniformInt(kNodes)), 0.1);
  query::EnumerationOptions opts;
  opts.top_k = 3;
  auto plans = query::EnumeratePlans(spec, catalog, opts);
  EXPECT_TRUE(plans.ok());
  auto c = Circuit::FromPlan(
      std::move((*plans)[rng->UniformInt(plans->size())]), catalog);
  EXPECT_TRUE(c.ok());
  std::vector<NodeId> up;
  for (NodeId n = 0; n < kNodes; ++n) {
    if (alive[n]) up.push_back(n);
  }
  for (int v : c->PlaceableVertices()) {
    c->mutable_vertex(v).host = up[rng->UniformInt(up.size())];
  }
  return std::move(c.value());
}

TEST(LedgerEquivalenceTest, IndexedDetachMatchesScanReplay) {
  const query::Catalog catalog = FourStreamCatalog();
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ServiceLedger ledger(kNodes, kLoadPerByte);
    ReferenceLedger ref;
    std::vector<bool> alive(kNodes, true);
    std::vector<int> down_for(kNodes, 0);
    size_t reuses = 0, removals = 0, evictions = 0, migrations = 0,
           failed_installs = 0;
    for (size_t step = 0; step < 600; ++step) {
      for (NodeId n = 0; n < kNodes; ++n) {
        if (!alive[n] && --down_for[n] == 0) alive[n] = true;
      }
      const double u = rng.NextDouble();
      if (u < 0.45) {
        Circuit c = RandomPlacedCircuit(catalog, alive, &rng);
        // Reuse an existing instance for some interior vertex, or (rarely)
        // a missing one, which must roll the install back.
        const std::vector<int> placeable = c.PlaceableVertices();
        if (!placeable.empty() && rng.Bernoulli(0.6)) {
          const int v = placeable[rng.UniformInt(placeable.size())];
          const auto matches =
              ledger.ServicesWithSignature(c.plan().OpSignature(v));
          if (rng.Bernoulli(0.05)) {
            c.BindReusedSubtree(v, /*instance=*/999999, c.vertex(v).host,
                                0.0);
            ++failed_installs;
          } else if (!matches.empty()) {
            const ServiceInstance* inst =
                matches[rng.UniformInt(matches.size())];
            c.BindReusedSubtree(v, inst->id, inst->host, 0.0);
            ++reuses;
          }
        }
        const bool ok_ref = ref.Install(c, alive);
        EXPECT_EQ(ledger.InstallCircuit(std::move(c), alive).ok(), ok_ref);
      } else if (u < 0.8) {
        if (ref.circuits.empty()) continue;
        auto it = ref.circuits.begin();
        std::advance(it, rng.UniformInt(ref.circuits.size()));
        const CircuitId cid = it->first;
        EXPECT_TRUE(ref.Remove(cid));
        EXPECT_TRUE(ledger.RemoveCircuit(cid).ok());
        ++removals;
      } else if (u < 0.9) {
        const NodeId n = static_cast<NodeId>(rng.UniformInt(kNodes));
        ref.Evict(n);
        ledger.EvictHost(n);
        alive[n] = false;
        down_for[n] = 1 + static_cast<int>(rng.UniformInt(4));
        ++evictions;
      } else {
        if (ref.services.empty()) continue;
        auto it = ref.services.begin();
        std::advance(it, rng.UniformInt(ref.services.size()));
        const NodeId to = static_cast<NodeId>(rng.UniformInt(kNodes));
        const bool ok_ref = ref.Migrate(it->first, to, alive);
        EXPECT_EQ(ledger.MigrateService(it->first, to, alive).ok(), ok_ref);
        ++migrations;
      }
      ExpectSameState(ledger, ref, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain: removal order must not matter to the books' exact zero.
    while (!ref.circuits.empty()) {
      const CircuitId cid = ref.circuits.begin()->first;
      EXPECT_TRUE(ref.Remove(cid));
      EXPECT_TRUE(ledger.RemoveCircuit(cid).ok());
      ExpectSameState(ledger, ref, 600);
    }
    EXPECT_TRUE(ledger.services_by_circuit().empty());
    EXPECT_GT(reuses, 10u);
    EXPECT_GT(removals, 50u);
    EXPECT_GT(evictions, 10u);
    EXPECT_GT(migrations, 10u);
    EXPECT_GT(failed_installs, 0u);
  }
}

}  // namespace
}  // namespace sbon::overlay
