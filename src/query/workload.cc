#include "query/workload.h"

#include <algorithm>
#include <cmath>

namespace sbon::query {

namespace {

bool IsProb(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

Status ValidateWorkloadParams(const WorkloadParams& p) {
  if (p.num_streams == 0) {
    return Status::InvalidArgument("num_streams must be >= 1");
  }
  if (!(p.rate_pareto_xm > 0.0)) {
    return Status::InvalidArgument("rate_pareto_xm must be > 0");
  }
  if (!(p.rate_pareto_alpha > 0.0)) {
    return Status::InvalidArgument("rate_pareto_alpha must be > 0");
  }
  if (!(p.rate_cap >= p.rate_pareto_xm)) {
    return Status::InvalidArgument("rate_cap must be >= rate_pareto_xm");
  }
  if (!(p.tuple_size_min > 0.0) || p.tuple_size_min > kTupleSizeMax) {
    return Status::InvalidArgument(
        "tuple size bounds need 0 < min <= kTupleSizeMax");
  }
  if (p.min_streams_per_query == 0 ||
      p.min_streams_per_query > p.max_streams_per_query) {
    return Status::InvalidArgument(
        "streams per query need 1 <= min <= max");
  }
  if (p.join_sel_log10_min > p.join_sel_log10_max ||
      p.join_sel_log10_max > 0.0) {
    // log10(selectivity) <= 0 keeps every drawn selectivity in (0, 1].
    return Status::InvalidArgument(
        "join selectivity exponents need min <= max <= 0");
  }
  if (!IsProb(p.chain_prob) || !IsProb(p.filter_prob) ||
      !IsProb(p.aggregate_prob)) {
    return Status::InvalidArgument(
        "chain/filter/aggregate probabilities must be in [0, 1]");
  }
  if (!(p.filter_sel_min > 0.0) || p.filter_sel_min > p.filter_sel_max ||
      p.filter_sel_max > 1.0) {
    return Status::InvalidArgument(
        "filter selectivity bounds need 0 < min <= max <= 1");
  }
  if (!(p.aggregate_factor_min > 0.0) ||
      p.aggregate_factor_min > kAggregateFactorMax) {
    return Status::InvalidArgument(
        "aggregate factor bounds need 0 < min <= kAggregateFactorMax");
  }
  if (!(p.join_window_s > 0.0)) {
    return Status::InvalidArgument("join_window_s must be > 0");
  }
  return Status::OK();
}

StatusOr<Catalog> MakeRandomCatalog(const WorkloadParams& params,
                                    const std::vector<NodeId>& producer_sites,
                                    Rng* rng) {
  Status st = ValidateWorkloadParams(params);
  if (!st.ok()) return st;
  if (producer_sites.empty()) {
    return Status::FailedPrecondition("no producer sites to pin streams to");
  }
  Catalog catalog;
  for (size_t i = 0; i < params.num_streams; ++i) {
    const double rate = std::min(
        rng->Pareto(params.rate_pareto_xm, params.rate_pareto_alpha),
        params.rate_cap);
    const double size =
        rng->Uniform(params.tuple_size_min, kTupleSizeMax);
    const NodeId producer =
        producer_sites[rng->UniformInt(producer_sites.size())];
    catalog.AddStream(IndexedStreamName(i), rate, size, producer);
  }
  return catalog;
}

StatusOr<QuerySpec> MakeRandomQuery(const WorkloadParams& params,
                                    const Catalog& catalog,
                                    const std::vector<NodeId>& consumer_sites,
                                    Rng* rng) {
  Status st = ValidateWorkloadParams(params);
  if (!st.ok()) return st;
  if (consumer_sites.empty()) {
    return Status::FailedPrecondition("no consumer sites to deliver to");
  }
  if (catalog.NumStreams() < params.min_streams_per_query) {
    return Status::FailedPrecondition(
        "catalog has fewer streams than min_streams_per_query");
  }
  const size_t hi =
      std::min(params.max_streams_per_query, catalog.NumStreams());
  const size_t lo = std::min(params.min_streams_per_query, hi);
  const size_t k = static_cast<size_t>(
      rng->UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));

  QuerySpec q;
  q.consumer = consumer_sites[rng->UniformInt(consumer_sites.size())];
  for (size_t idx : rng->SampleWithoutReplacement(catalog.NumStreams(), k)) {
    q.streams.push_back(static_cast<StreamId>(idx));
  }
  q.join_window_s = params.join_window_s;

  q.filter_sel.assign(k, 1.0);
  for (size_t i = 0; i < k; ++i) {
    if (rng->Bernoulli(params.filter_prob)) {
      q.filter_sel[i] =
          rng->Uniform(params.filter_sel_min, params.filter_sel_max);
    }
  }

  JoinGraphShape shape = JoinGraphShape::kChain;
  if (!rng->Bernoulli(params.chain_prob)) {
    shape = rng->Bernoulli(0.5) ? JoinGraphShape::kStar
                                : JoinGraphShape::kClique;
  }
  auto draw_sel = [&]() {
    const double log10s =
        rng->Uniform(params.join_sel_log10_min, params.join_sel_log10_max);
    return std::pow(10.0, log10s);
  };
  q.join_sel.assign(k, std::vector<double>(k, 1.0));
  auto set_pair = [&](size_t i, size_t j) {
    const double s = draw_sel();
    q.join_sel[i][j] = s;
    q.join_sel[j][i] = s;
  };
  switch (shape) {
    case JoinGraphShape::kChain:
      for (size_t i = 0; i + 1 < k; ++i) set_pair(i, i + 1);
      break;
    case JoinGraphShape::kStar:
      for (size_t i = 1; i < k; ++i) set_pair(0, i);
      break;
    case JoinGraphShape::kClique:
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = i + 1; j < k; ++j) set_pair(i, j);
      }
      break;
  }

  if (rng->Bernoulli(params.aggregate_prob)) {
    q.aggregate_factor =
        rng->Uniform(params.aggregate_factor_min, kAggregateFactorMax);
  }
  return q;
}

}  // namespace sbon::query
