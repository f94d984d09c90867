#include "query/plan.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "query/stats.h"

namespace sbon::query {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kProducer: return "Producer";
    case OpKind::kSelect: return "Select";
    case OpKind::kJoin: return "Join";
    case OpKind::kAggregate: return "Aggregate";
    case OpKind::kConsumer: return "Consumer";
  }
  return "?";
}

int LogicalPlan::AddProducer(StreamId stream) {
  PlanOp op;
  op.kind = OpKind::kProducer;
  op.stream = stream;
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

int LogicalPlan::AddSelect(int child, double selectivity) {
  assert(child >= 0 && child < static_cast<int>(ops_.size()));
  PlanOp op;
  op.kind = OpKind::kSelect;
  op.selectivity = selectivity;
  op.children = {child};
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

int LogicalPlan::AddJoin(int left, int right, double selectivity) {
  assert(left >= 0 && left < static_cast<int>(ops_.size()));
  assert(right >= 0 && right < static_cast<int>(ops_.size()));
  PlanOp op;
  op.kind = OpKind::kJoin;
  op.selectivity = selectivity;
  op.children = {left, right};
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

int LogicalPlan::AddAggregate(int child, double rate_factor) {
  assert(child >= 0 && child < static_cast<int>(ops_.size()));
  PlanOp op;
  op.kind = OpKind::kAggregate;
  op.rate_factor = rate_factor;
  op.children = {child};
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

int LogicalPlan::SetConsumer(int child, NodeId consumer) {
  assert(child >= 0 && child < static_cast<int>(ops_.size()));
  PlanOp op;
  op.kind = OpKind::kConsumer;
  op.children = {child};
  ops_.push_back(std::move(op));
  root_ = static_cast<int>(ops_.size()) - 1;
  consumer_ = consumer;
  return root_;
}

std::vector<int> LogicalPlan::UnpinnedOps() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(ops_.size()); ++i) {
    if (ops_[i].kind != OpKind::kProducer &&
        ops_[i].kind != OpKind::kConsumer) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<int> LogicalPlan::ProducerOps() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(ops_.size()); ++i) {
    if (ops_[i].kind == OpKind::kProducer) out.push_back(i);
  }
  return out;
}

Status LogicalPlan::Validate() const {
  if (root_ < 0) return Status::FailedPrecondition("no consumer root");
  if (ops_[root_].kind != OpKind::kConsumer) {
    return Status::Internal("root is not a consumer");
  }
  if (consumer_ == kInvalidNode) {
    return Status::FailedPrecondition("consumer node not set");
  }
  // Parent count per op, in a thread-local buffer that keeps its capacity:
  // validation runs on every plan build and stays heap-free.
  thread_local std::vector<int> indegree;
  indegree.assign(ops_.size(), 0);
  for (size_t i = 0; i < ops_.size(); ++i) {
    const PlanOp& op = ops_[i];
    const size_t expected_children =
        op.kind == OpKind::kProducer ? 0 : op.kind == OpKind::kJoin ? 2 : 1;
    if (op.children.size() != expected_children) {
      return Status::Internal("op has wrong child count");
    }
    for (int c : op.children) {
      if (c < 0 || c >= static_cast<int>(i)) {
        return Status::Internal("child index out of order");
      }
      indegree[c]++;
    }
  }
  for (size_t i = 0; i < ops_.size(); ++i) {
    const int expected = (static_cast<int>(i) == root_) ? 0 : 1;
    if (indegree[i] != expected) {
      return Status::Internal("plan is not a tree");
    }
  }
  return Status::OK();
}

Status LogicalPlan::AnnotateRates(const Catalog& catalog,
                                  double join_window_s) {
  Status valid = Validate();
  if (!valid.ok()) return valid;
  for (PlanOp& op : ops_) {
    switch (op.kind) {
      case OpKind::kProducer: {
        if (!catalog.Has(op.stream)) {
          return Status::NotFound("stream not in catalog");
        }
        const StreamDef& s = catalog.stream(op.stream);
        op.out_tuple_rate = s.tuple_rate_per_s;
        op.out_tuple_size = s.tuple_size_bytes;
        op.stream_set = {op.stream};
        break;
      }
      case OpKind::kSelect: {
        const PlanOp& c = ops_[op.children[0]];
        op.out_tuple_rate = SelectOutputRate(c.out_tuple_rate,
                                             op.selectivity);
        op.out_tuple_size = c.out_tuple_size;
        op.stream_set = c.stream_set;
        break;
      }
      case OpKind::kJoin: {
        const PlanOp& l = ops_[op.children[0]];
        const PlanOp& r = ops_[op.children[1]];
        op.out_tuple_rate =
            JoinOutputRate(l.out_tuple_rate, r.out_tuple_rate,
                           op.selectivity, join_window_s);
        op.out_tuple_size = JoinOutputTupleSize(l.out_tuple_size,
                                                r.out_tuple_size);
        op.stream_set = l.stream_set;
        op.stream_set.insert(op.stream_set.end(), r.stream_set.begin(),
                             r.stream_set.end());
        std::sort(op.stream_set.begin(), op.stream_set.end());
        break;
      }
      case OpKind::kAggregate: {
        const PlanOp& c = ops_[op.children[0]];
        op.out_tuple_rate = c.out_tuple_rate * op.rate_factor;
        op.out_tuple_size = c.out_tuple_size;
        op.stream_set = c.stream_set;
        break;
      }
      case OpKind::kConsumer: {
        const PlanOp& c = ops_[op.children[0]];
        op.out_tuple_rate = c.out_tuple_rate;
        op.out_tuple_size = c.out_tuple_size;
        op.stream_set = c.stream_set;
        break;
      }
    }
    op.out_bytes_per_s = op.out_tuple_rate * op.out_tuple_size;
  }
  return Status::OK();
}

double LogicalPlan::IntermediateDataRate() const {
  // Every op except the root ships its output over one plan edge.
  double total = 0.0;
  for (int i = 0; i < static_cast<int>(ops_.size()); ++i) {
    if (i == root_) continue;
    total += ops_[i].out_bytes_per_s;
  }
  return total;
}

std::string LogicalPlan::CanonicalRec(int i) const {
  const PlanOp& op = ops_[i];
  char buf[48];
  switch (op.kind) {
    case OpKind::kProducer:
      std::snprintf(buf, sizeof(buf), "P%u", op.stream);
      return buf;
    case OpKind::kSelect:
      std::snprintf(buf, sizeof(buf), "S[%.3g](", op.selectivity);
      return buf + CanonicalRec(op.children[0]) + ")";
    case OpKind::kJoin: {
      std::snprintf(buf, sizeof(buf), "J[%.3g](", op.selectivity);
      // Children rendered in stream-set order for a canonical form.
      std::string l = CanonicalRec(op.children[0]);
      std::string r = CanonicalRec(op.children[1]);
      if (r < l) std::swap(l, r);
      return buf + l + "," + r + ")";
    }
    case OpKind::kAggregate:
      std::snprintf(buf, sizeof(buf), "A[%.3g](", op.rate_factor);
      return buf + CanonicalRec(op.children[0]) + ")";
    case OpKind::kConsumer:
      return "C(" + CanonicalRec(op.children[0]) + ")";
  }
  return "?";
}

std::string LogicalPlan::Canonical() const {
  if (root_ < 0) return "<incomplete>";
  return CanonicalRec(root_);
}

uint64_t LogicalPlan::OpSignature(int i) const {
  const PlanOp& op = ops_[i];
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV prime
  };
  mix(static_cast<uint64_t>(op.kind));
  // Quantize params so float noise does not break signature equality.
  mix(static_cast<uint64_t>(op.selectivity * 1e9));
  mix(static_cast<uint64_t>(op.rate_factor * 1e9));
  for (StreamId s : op.stream_set) mix(s + 1);
  return h;
}

}  // namespace sbon::query
