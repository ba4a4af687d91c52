// Query planner: lowers a SearchRequest into a physical plan.
//
// The planner owns everything about a query that is decided *before* any
// partition is scanned: validation, query normalization, effective-nprobe
// resolution, the pre- vs post-filter choice for hybrid queries (§3.5.1,
// via the selectivity optimizer), binding the attribute filter to a
// row-level predicate (the post-filter pushdown), and materializing the
// candidate set through the attribute indexes (the pre-filter first
// stage). The QueryExecutor (executor.h) then runs a *group* of lowered
// plans with shared partition scans (§3.4) — both DB::Search and
// DB::BatchSearch dispatch through this pair, so a batch of one and a
// single query are literally the same code path.
#ifndef MICRONN_QUERY_PLANNER_H_
#define MICRONN_QUERY_PLANNER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/options.h"
#include "ivf/scan.h"
#include "query/stats.h"
#include "storage/engine.h"

namespace micronn {

/// A lowered query: the physical strategy plus everything the executor
/// needs to run it (normalized query, bound filter, candidate set).
struct PhysicalPlan {
  std::vector<float> query;  // normalized for cosine; dim-checked
  uint32_t k = 0;
  uint32_t nprobe = 0;       // effective (request value or the DB default)
  QueryPlan plan = QueryPlan::kUnfiltered;

  /// Optimizer estimates; meaningful when `optimized` (hybrid + kAuto).
  PlanDecision decision;
  bool optimized = false;

  /// SQ8 quantized partition scans (kUnfiltered / kPostFilter plans with
  /// quantization enabled): scans read the int8 sidecar rows of every
  /// partition that has parameters, heaps collect `rerank_k` = ceil(k *
  /// alpha) candidates, and the executor's rerank op re-scores at full
  /// precision the ones that can still reach the top-k. Partitions without
  /// parameters fall back to the float scan inside the same plan.
  bool quantized = false;
  uint32_t rerank_k = 0;

  /// Bound row-level filter (post-filter and filtered-exact plans). The
  /// shared_ptr identity doubles as the executor's pushdown key: scans
  /// whose fan-in all carry the same pointer push the filter below the
  /// row decode — and the planner binds *equal* predicates of one batch to
  /// the same pointer, so duplicate filters across a batch share their
  /// evaluation too.
  std::shared_ptr<const RowFilter> filter;
  /// The predicate behind `filter` (same dedup identity); the executor
  /// uses it to evaluate heterogeneous fan-in filters against one shared
  /// attribute-record decode per row.
  std::shared_ptr<const Predicate> predicate;

  /// Candidate rows from the attribute indexes (kPreFilter plans only).
  std::vector<uint64_t> prefilter_vids;
};

/// Lazily fetches the optimizer statistics (cached by the DB facade, so a
/// batch of hybrid queries loads them once).
using StatsProvider = std::function<
    Result<std::shared_ptr<const std::map<std::string, ColumnStats>>>()>;

class QueryPlanner {
 public:
  /// `txn`, `options`, and `stats` must outlive the planner; plans bind
  /// tables of `txn` and must not outlive it either.
  QueryPlanner(ReadTransaction* txn, const DbOptions* options,
               StatsProvider stats)
      : txn_(txn), options_(options), stats_(std::move(stats)) {}

  Result<PhysicalPlan> Lower(const SearchRequest& request);

 private:
  // A bound filter and the predicate it evaluates; cached so equal
  // predicates across one planner's lifetime (= one batch) bind to the
  // same filter instance and share evaluation in the executor.
  struct BoundFilter {
    std::shared_ptr<const Predicate> predicate;
    std::shared_ptr<const RowFilter> filter;
  };

  // Builds the per-row join against the Attributes table (§3.5 post-filter
  // pushdown), deduping by predicate equality.
  Result<BoundFilter> BindFilter(const Predicate& pred);
  // Runs the §3.5.1 optimizer for a hybrid query.
  Result<PlanDecision> Choose(const Predicate& filter, uint32_t nprobe);

  ReadTransaction* txn_;
  const DbOptions* options_;
  StatsProvider stats_;
  std::vector<BoundFilter> bound_filters_;
};

}  // namespace micronn

#endif  // MICRONN_QUERY_PLANNER_H_
