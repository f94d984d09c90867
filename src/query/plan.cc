#include "query/plan.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

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

int LogicalPlan::Append(PlanOp op, std::initializer_list<int> children) {
  assert(children.size() <= op.children.at_.size());
  for (int c : children) {
    assert(c >= 0 && c < static_cast<int>(ops_.size()));
    // Validate rejects an out-of-range child; only real ones are counted.
    if (c >= 0 && c < static_cast<int>(ops_.size())) ++ops_[c].num_parents;
    op.children.at_[op.children.count_++] = c;
  }
  ops_.push_back(op);
  return static_cast<int>(ops_.size()) - 1;
}

int LogicalPlan::AddProducer(StreamId stream) {
  PlanOp op;
  op.kind = OpKind::kProducer;
  op.stream = stream;
  return Append(op, {});
}

int LogicalPlan::AddSelect(int child, double selectivity) {
  PlanOp op;
  op.kind = OpKind::kSelect;
  op.selectivity = selectivity;
  return Append(op, {child});
}

int LogicalPlan::AddJoin(int left, int right, double selectivity) {
  PlanOp op;
  op.kind = OpKind::kJoin;
  op.selectivity = selectivity;
  return Append(op, {left, right});
}

int LogicalPlan::AddAggregate(int child, double rate_factor) {
  PlanOp op;
  op.kind = OpKind::kAggregate;
  op.rate_factor = rate_factor;
  return Append(op, {child});
}

int LogicalPlan::SetConsumer(int child, NodeId consumer) {
  PlanOp op;
  op.kind = OpKind::kConsumer;
  root_ = Append(op, {child});
  consumer_ = consumer;
  return root_;
}

Status LogicalPlan::Validate() const {
  if (root_ < 0) return Status::FailedPrecondition("no consumer root");
  if (consumer_ == kInvalidNode) {
    return Status::FailedPrecondition("consumer node not set");
  }
  for (int i = 0; i < static_cast<int>(ops_.size()); ++i) {
    for (int c : ops_[i].children) {
      if (c < 0 || c >= i) return Status::Internal("child index out of order");
    }
    if (ops_[i].num_parents != (i == root_ ? 0 : 1)) {
      return Status::Internal("plan is not a tree");
    }
  }
  return Status::OK();
}

Status LogicalPlan::AnnotateRates(const Catalog& catalog,
                                  double join_window_s) {
  Status valid = Validate();
  if (!valid.ok()) return valid;
  // Count each op's streams first, so the pool is sized once: producers
  // and joins own a range, every other op shares its child's.
  size_t pool_size = 0;
  for (PlanOp& op : ops_) {
    if (op.kind == OpKind::kProducer) {
      op.stream_count = 1;
    } else if (op.kind == OpKind::kJoin) {
      op.stream_count = ops_[op.children[0]].stream_count +
                        ops_[op.children[1]].stream_count;
    } else {
      op.stream_count = ops_[op.children[0]].stream_count;
      continue;
    }
    pool_size += op.stream_count;
  }
  stream_pool_.resize(pool_size);
  uint32_t next = 0;  // start of the next owned range
  for (PlanOp& op : ops_) {
    switch (op.kind) {
      case OpKind::kProducer: {
        if (!catalog.Has(op.stream)) {
          return Status::NotFound("stream not in catalog");
        }
        const StreamDef& s = catalog.stream(op.stream);
        op.out_tuple_rate = s.tuple_rate_per_s;
        op.out_tuple_size = s.tuple_size_bytes;
        op.stream_begin = next++;
        stream_pool_[op.stream_begin] = op.stream;
        break;
      }
      case OpKind::kSelect: {
        const PlanOp& c = ops_[op.children[0]];
        op.out_tuple_rate = SelectOutputRate(c.out_tuple_rate,
                                             op.selectivity);
        op.out_tuple_size = c.out_tuple_size;
        op.stream_begin = c.stream_begin;
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
        op.stream_begin = next;
        next += op.stream_count;
        const std::span<const StreamId> ls = StreamSet(op.children[0]);
        const std::span<const StreamId> rs = StreamSet(op.children[1]);
        std::merge(ls.begin(), ls.end(), rs.begin(), rs.end(),
                   stream_pool_.begin() + op.stream_begin);
        break;
      }
      case OpKind::kAggregate: {
        const PlanOp& c = ops_[op.children[0]];
        op.out_tuple_rate = c.out_tuple_rate * op.rate_factor;
        op.out_tuple_size = c.out_tuple_size;
        op.stream_begin = c.stream_begin;
        break;
      }
      case OpKind::kConsumer: {
        const PlanOp& c = ops_[op.children[0]];
        op.out_tuple_rate = c.out_tuple_rate;
        op.out_tuple_size = c.out_tuple_size;
        op.stream_begin = c.stream_begin;
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
  for (StreamId s : StreamSet(i)) mix(s + 1);
  return h;
}

}  // namespace sbon::query
