// Reproduces Figure 3 of the paper: virtual placement of an unpinned
// service in the vector dimensions of the cost space, then physical mapping
// back to a node. Three claims are quantified:
//
//  1. Mapping error (distance between the virtually chosen coordinate and
//     the node the Hilbert/Chord catalog returns) "remains small for
//     realistic topologies" and shrinks as node density / probe width grow.
//  2. Load-aware mapping picks a lightly loaded node (N2) over a
//     latency-closer but overloaded one (N1) — the full-space distance
//     makes overloaded nodes "seem far away".
//  3. End-to-end: relaxation + mapping lands within a modest factor of the
//     exhaustive placement oracle.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/summary.h"
#include "common/table.h"
#include "overlay/metrics.h"
#include "placement/baselines.h"
#include "placement/mapping.h"
#include "placement/relaxation.h"
#include "query/enumerate.h"
#include "query/workload.h"

namespace sbon {
namespace {

using bench::MakeTransitStubSbon;
using bench::Section;
using overlay::Circuit;

query::QuerySpec RandomJoinSpec(overlay::Sbon* sbon, query::Catalog* cat,
                                size_t producers, Rng* rng) {
  query::WorkloadParams wp;
  wp.num_streams = producers;
  wp.min_streams_per_query = producers;
  wp.max_streams_per_query = producers;
  *cat = query::MakeRandomCatalog(wp, sbon->overlay_nodes(), rng).value();
  return query::MakeRandomQuery(wp, *cat, sbon->overlay_nodes(), rng).value();
}

void MappingErrorSweep() {
  Section("1. mapping error vs overlay size and probe width");
  TableWriter t({"nodes", "probe", "mean err (ms)", "p95 err (ms)",
                 "exact-oracle err", "mean net latency", "DHT hops/query"});
  for (size_t nodes : bench::DedupedSizes({100, 200, 400, 600})) {
    for (size_t probe : {4, 16, 48}) {
      Summary err, exact_err, hops;
      double mean_lat = 0.0;
      for (uint64_t seed = 1; seed <= bench::Sweep(10); ++seed) {
        auto sbon = MakeTransitStubSbon(nodes, seed * 131);
        mean_lat = sbon->latency().MeanLatency();
        query::Catalog cat;
        query::QuerySpec spec =
            RandomJoinSpec(sbon.get(), &cat, 3, &sbon->rng());
        auto plans =
            query::EnumeratePlans(spec, cat, query::EnumerationOptions{});
        if (!plans.ok()) continue;
        auto circuit = Circuit::FromPlan((*plans)[0], cat);
        if (!circuit.ok()) continue;
        placement::RelaxationPlacer placer;
        if (!placer.Place(&circuit.value(), sbon->cost_space()).ok()) {
          continue;
        }
        Circuit exact_circuit = circuit.value();
        placement::MappingOptions mo;
        mo.probe_width = probe;
        placement::MappingReport rep, erep;
        if (!placement::MapCircuit(&circuit.value(), *sbon, mo, &rep).ok()) {
          continue;
        }
        if (!placement::MapCircuitExact(&exact_circuit, *sbon, mo, &erep)
                 .ok()) {
          continue;
        }
        err.Add(rep.MeanMappingError());
        exact_err.Add(erep.MeanMappingError());
        hops.Add(static_cast<double>(rep.dht_cost.routing_hops) /
                 std::max<size_t>(1, rep.dht_cost.lookups));
      }
      t.AddRow({std::to_string(nodes), std::to_string(probe),
                TableWriter::Fixed(err.Mean(), 2),
                TableWriter::Fixed(err.Percentile(95), 2),
                TableWriter::Fixed(exact_err.Mean(), 2),
                TableWriter::Fixed(mean_lat, 1),
                TableWriter::Fixed(hops.Mean(), 1)});
    }
  }
  std::printf("%s", t.Render().c_str());
  std::printf(
      "(mapping error is small relative to mean pairwise latency and "
      "shrinks with density/probe width;\n the exact-oracle column isolates "
      "Hilbert-walk error from plain quantization)\n");
}

void LoadAwareScenario() {
  Section("2. N1-vs-N2: load-aware mapping avoids overloaded nearest node");
  TableWriter t({"overload level", "trials", "avoided N1", "chosen load",
                 "blind-chosen load", "extra latency err (ms)"});
  for (double overload : {0.5, 0.75, 0.95}) {
    size_t avoided = 0, trials = 0;
    Summary aware_load, blind_load, extra_err;
    for (uint64_t seed = 1; seed <= bench::Sweep(20); ++seed) {
      auto sbon = MakeTransitStubSbon(bench::Nodes(200), seed * 977);
      query::Catalog cat;
      query::QuerySpec spec =
          RandomJoinSpec(sbon.get(), &cat, 2, &sbon->rng());
      auto plans =
          query::EnumeratePlans(spec, cat, query::EnumerationOptions{});
      if (!plans.ok()) continue;
      auto base = Circuit::FromPlan((*plans)[0], cat);
      if (!base.ok()) continue;
      placement::RelaxationPlacer placer;
      if (!placer.Place(&base.value(), sbon->cost_space()).ok()) continue;

      // Find the load-blind choice (N1) and overload it.
      Circuit blind = base.value();
      placement::MappingOptions blind_opts;
      blind_opts.load_aware = false;
      if (!placement::MapCircuit(&blind, *sbon, blind_opts, nullptr).ok()) {
        continue;
      }
      const int v = blind.PlaceableVertices().empty()
                        ? -1
                        : blind.PlaceableVertices()[0];
      if (v < 0) continue;
      const NodeId n1 = blind.vertex(v).host;
      sbon->SetBaseLoad(n1, overload);
      sbon->RefreshIndex();

      Circuit aware = base.value();
      placement::MappingReport rep;
      if (!placement::MapCircuit(&aware, *sbon, placement::MappingOptions{},
                                 &rep)
               .ok()) {
        continue;
      }
      Circuit blind2 = base.value();
      if (!placement::MapCircuit(&blind2, *sbon, blind_opts, nullptr).ok()) {
        continue;
      }
      ++trials;
      if (aware.vertex(v).host != n1) ++avoided;
      aware_load.Add(sbon->TotalLoad(aware.vertex(v).host));
      blind_load.Add(sbon->TotalLoad(blind2.vertex(v).host));
      extra_err.Add(rep.MeanMappingError());
    }
    t.AddRow({TableWriter::Fixed(overload, 2), std::to_string(trials),
              TableWriter::Fixed(100.0 * avoided / std::max<size_t>(1, trials),
                                 1) +
                  "%",
              TableWriter::Fixed(aware_load.Mean(), 3),
              TableWriter::Fixed(blind_load.Mean(), 3),
              TableWriter::Fixed(extra_err.Mean(), 2)});
  }
  std::printf("%s", t.Render().c_str());
  std::printf(
      "(as N1's load grows, the full cost-space distance pushes it away: "
      "the mapper detours to\n lightly loaded N2 at a small latency-space "
      "cost — exactly the Figure 3 narrative)\n");
}

void OracleGap() {
  Section("3. relaxation + mapping vs exhaustive placement oracle");
  TableWriter t({"nodes", "trials", "relax usage", "oracle usage",
                 "mean gap", "p90 gap"});
  for (size_t nodes : bench::DedupedSizes({100, 200})) {
    Summary gap;
    Summary relax_usage, oracle_usage;
    size_t trials = 0;
    for (uint64_t seed = 1; seed <= bench::Sweep(12); ++seed) {
      auto sbon = MakeTransitStubSbon(nodes, seed * 271);
      // Pure 3-way join (2 services) so the exhaustive oracle is tractable:
      // no filter/aggregate ops.
      query::Catalog cat;
      std::vector<StreamId> ids;
      for (int i = 0; i < 3; ++i) {
        ids.push_back(cat.AddStream(
            query::IndexedStreamName(i), sbon->rng().Uniform(20.0, 200.0), 128.0,
            sbon->overlay_nodes()[sbon->rng().UniformInt(
                sbon->overlay_nodes().size())]));
      }
      query::QuerySpec spec = query::QuerySpec::SimpleJoin(
          ids,
          sbon->overlay_nodes()[sbon->rng().UniformInt(
              sbon->overlay_nodes().size())],
          0.001);
      auto plans =
          query::EnumeratePlans(spec, cat, query::EnumerationOptions{});
      if (!plans.ok()) continue;
      auto circuit = Circuit::FromPlan((*plans)[0], cat);
      if (!circuit.ok()) continue;
      Circuit relax_c = circuit.value();
      placement::RelaxationPlacer placer;
      if (!placer.Place(&relax_c, sbon->cost_space()).ok()) continue;
      if (!placement::MapCircuit(&relax_c, *sbon,
                                 placement::MappingOptions{}, nullptr)
               .ok()) {
        continue;
      }
      Circuit oracle_c = circuit.value();
      placement::ExhaustiveOraclePlacer::Params op;
      op.max_services = 2;
      op.node_sample = 120;  // keep n^2 tractable
      placement::ExhaustiveOraclePlacer oracle(op);
      if (!oracle.Place(&oracle_c, *sbon).ok()) continue;
      auto rc =
          overlay::ComputeCircuitCost(relax_c, sbon->latency(), nullptr);
      auto oc =
          overlay::ComputeCircuitCost(oracle_c, sbon->latency(), nullptr);
      if (!rc.ok() || !oc.ok() || oc->network_usage <= 0.0) continue;
      ++trials;
      relax_usage.Add(rc->network_usage / 1000.0);
      oracle_usage.Add(oc->network_usage / 1000.0);
      gap.Add(rc->network_usage / oc->network_usage);
    }
    t.AddRow({std::to_string(nodes), std::to_string(trials),
              TableWriter::Num(relax_usage.Mean()),
              TableWriter::Num(oracle_usage.Mean()),
              TableWriter::Fixed(gap.Mean(), 3),
              TableWriter::Fixed(gap.Percentile(90), 3)});
  }
  std::printf("%s", t.Render().c_str());
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);
  std::printf(
      "Figure 3 reproduction: virtual placement + physical mapping in the "
      "cost space\n");
  sbon::MappingErrorSweep();
  sbon::LoadAwareScenario();
  sbon::OracleGap();
  return 0;
}
