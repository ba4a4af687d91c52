#include "query/planner.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "ivf/schema.h"
#include "numerics/distance.h"
#include "query/attr_index.h"
#include "query/predicate.h"
#include "query/value.h"
#include "storage/key_encoding.h"
#include "text/fts_index.h"

namespace micronn {

Result<QueryPlanner::BoundFilter> QueryPlanner::BindFilter(
    const Predicate& pred) {
  // Dedup by structural equality: requests of one batch carrying the same
  // predicate get the same bound instance, so the executor's pushdown
  // (pointer identity) and per-row shared evaluation (slot dedup) both
  // collapse duplicate filters into one evaluation per row.
  for (const BoundFilter& bound : bound_filters_) {
    if (PredicateEquals(*bound.predicate, pred)) return bound;
  }
  MICRONN_ASSIGN_OR_RETURN(BTree attributes,
                           txn_->OpenTable(kAttributesTable));
  BoundFilter bound;
  // The predicate is copied out of the request: plans may outlive the
  // request they were lowered from.
  bound.predicate = std::make_shared<const Predicate>(pred);
  std::shared_ptr<const Predicate> predicate = bound.predicate;
  bound.filter = std::make_shared<const RowFilter>(
      [attributes, predicate](uint64_t vid) mutable -> Result<bool> {
        MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> blob,
                                 attributes.Get(key::U64(vid)));
        if (!blob.has_value()) return false;
        MICRONN_ASSIGN_OR_RETURN(AttributeRecord record,
                                 DecodeAttributeRecord(*blob));
        return EvalPredicate(*predicate, record);
      });
  bound_filters_.push_back(bound);
  return bound;
}

Result<PlanDecision> QueryPlanner::Choose(const Predicate& filter,
                                          uint32_t nprobe) {
  MICRONN_ASSIGN_OR_RETURN(auto stats, stats_());
  MICRONN_ASSIGN_OR_RETURN(TableInfo vinfo,
                           txn_->GetTableInfo(kVectorsTable));
  ReadTransaction* txn = txn_;
  TokenDfFn token_df = [txn](const std::string& column,
                             const std::string& token) -> Result<uint64_t> {
    Result<BTree> freqs = txn->OpenTable(FtsFreqsTableName(column));
    if (!freqs.ok()) {
      if (freqs.status().IsNotFound()) return 0;
      return freqs.status();
    }
    Result<BTree> postings = txn->OpenTable(FtsPostingsTableName(column));
    if (!postings.ok()) return postings.status();
    FtsIndex fts(*postings, *freqs);
    return fts.DocumentFrequency(token);
  };
  SelectivityEstimator estimator(*stats, vinfo.row_count,
                                 std::move(token_df));
  return ChoosePlan(estimator, filter, nprobe,
                    options_->target_cluster_size);
}

Result<PhysicalPlan> QueryPlanner::Lower(const SearchRequest& request) {
  PhysicalPlan plan;
  plan.query = request.query;
  if (plan.query.size() != options_->dim) {
    return Status::InvalidArgument(
        "query dimension " + std::to_string(plan.query.size()) +
        " != database dimension " + std::to_string(options_->dim));
  }
  if (options_->metric == Metric::kCosine) {
    const float n = Norm(plan.query.data(), plan.query.size());
    if (n > 0.f) {
      const float inv = 1.0f / n;
      for (float& x : plan.query) x *= inv;
    }
  }
  if (request.k == 0) return Status::InvalidArgument("k must be > 0");
  plan.k = request.k;
  plan.nprobe =
      request.nprobe != 0 ? request.nprobe : options_->default_nprobe;

  // Quantized-vs-exact scan choice: SQ8 serves ANN partition scans only —
  // exact plans promise exhaustive full-precision answers, and pre-filter
  // plans already score their candidates exactly. Quantized unless the
  // request opts out.
  auto enable_quantized = [&] {
    if (!request.quantized) return;
    plan.quantized = true;
    plan.rerank_k = static_cast<uint32_t>(std::min<uint64_t>(
        plan.k * kSq8RerankAlpha, std::numeric_limits<uint32_t>::max()));
  };

  if (request.exact) {
    plan.plan = QueryPlan::kExact;
    plan.decision.plan = QueryPlan::kExact;
    if (request.filter.has_value()) {
      MICRONN_ASSIGN_OR_RETURN(BoundFilter bound, BindFilter(*request.filter));
      plan.filter = bound.filter;
      plan.predicate = bound.predicate;
    }
    return plan;
  }
  if (!request.filter.has_value()) {
    plan.plan = QueryPlan::kUnfiltered;
    plan.decision.plan = QueryPlan::kUnfiltered;
    enable_quantized();
    return plan;
  }

  // Hybrid query: choose pre- vs post-filtering (§3.5.1).
  QueryPlan chosen;
  if (request.plan == PlanOverride::kForcePreFilter) {
    chosen = QueryPlan::kPreFilter;
  } else if (request.plan == PlanOverride::kForcePostFilter) {
    chosen = QueryPlan::kPostFilter;
  } else {
    MICRONN_ASSIGN_OR_RETURN(plan.decision,
                             Choose(*request.filter, plan.nprobe));
    plan.optimized = true;
    chosen = plan.decision.plan;
  }
  plan.plan = chosen;
  plan.decision.plan = chosen;
  if (chosen == QueryPlan::kPreFilter) {
    ReadTransaction* txn = txn_;
    MICRONN_ASSIGN_OR_RETURN(
        plan.prefilter_vids,
        CollectMatchingVids(
            [txn](const std::string& name) { return txn->OpenTable(name); },
            *request.filter));
  } else {
    MICRONN_ASSIGN_OR_RETURN(BoundFilter bound, BindFilter(*request.filter));
    plan.filter = bound.filter;
    plan.predicate = bound.predicate;
    enable_quantized();
  }
  return plan;
}

}  // namespace micronn
