#include "query/query_spec.h"

#include <cmath>

namespace sbon::query {

Status QuerySpec::Validate(const Catalog& catalog) const {
  // False for NaN as well as for values outside [0, 1].
  const auto in_unit_interval = [](double x) { return x >= 0.0 && x <= 1.0; };
  if (streams.empty()) return Status::InvalidArgument("query has no streams");
  if (consumer == kInvalidNode) {
    return Status::InvalidArgument("query has no consumer");
  }
  for (StreamId s : streams) {
    if (!catalog.Has(s)) return Status::NotFound("unknown stream in query");
  }
  if (!filter_sel.empty() && filter_sel.size() != streams.size()) {
    return Status::InvalidArgument("filter_sel size mismatch");
  }
  for (double sel : filter_sel) {
    if (!in_unit_interval(sel)) {
      return Status::InvalidArgument("filter_sel out of [0,1]");
    }
  }
  if (!join_sel.empty()) {
    if (join_sel.size() != streams.size()) {
      return Status::InvalidArgument("join_sel size mismatch");
    }
    for (const std::vector<double>& row : join_sel) {
      if (row.size() != streams.size()) {
        return Status::InvalidArgument("join_sel row size mismatch");
      }
      for (double sel : row) {
        if (!in_unit_interval(sel)) {
          return Status::InvalidArgument("join_sel out of [0,1]");
        }
      }
    }
    for (size_t i = 0; i < join_sel.size(); ++i) {
      for (size_t j = 0; j < join_sel.size(); ++j) {
        if (join_sel[i][j] != join_sel[j][i]) {
          return Status::InvalidArgument("join_sel not symmetric");
        }
      }
    }
  }
  if (!in_unit_interval(aggregate_factor)) {
    return Status::InvalidArgument("aggregate_factor out of [0,1]");
  }
  if (!std::isfinite(join_window_s) || join_window_s <= 0.0) {
    return Status::InvalidArgument("join_window_s must be positive and finite");
  }
  return Status::OK();
}

QuerySpec QuerySpec::SimpleJoin(std::vector<StreamId> streams, NodeId consumer,
                                double sel, double window_s) {
  QuerySpec q;
  q.consumer = consumer;
  q.streams = std::move(streams);
  const size_t n = q.streams.size();
  q.filter_sel.assign(n, 1.0);
  q.join_sel.assign(n, std::vector<double>(n, sel));
  for (size_t i = 0; i < n; ++i) q.join_sel[i][i] = 1.0;
  q.join_window_s = window_s;
  return q;
}

}  // namespace sbon::query
