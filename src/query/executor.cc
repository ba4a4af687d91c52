#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "ivf/schema.h"
#include "numerics/sq8.h"
#include "query/predicate.h"
#include "query/value.h"
#include "storage/key_encoding.h"

namespace micronn {

namespace {

// Work item: one partition and the plans that probe it.
struct PartitionWork {
  uint32_t partition;
  std::vector<size_t> plan_idx;
};

// One kernel invocation's fan-in: the targets plus (optionally) the
// shared attribute-record evaluator for heterogeneous filters.
struct SubScan {
  std::vector<HeapScanTarget> targets;
  SharedFilterEval eval;  // empty when per-target filters run instead
  size_t n_slots = 0;
};

// A quantized plan's heap holds the rerank candidate pool.
uint32_t HeapK(const PhysicalPlan& plan) {
  return plan.quantized ? plan.rerank_k : plan.k;
}

// The planner's facts, copied into the plan's EXPLAIN once; everything
// else in it is an execution counter this file fills.
QueryExplain PlannerFacts(const PhysicalPlan& plan) {
  QueryExplain ex;
  ex.plan = plan.plan;
  ex.decision = plan.decision;
  ex.optimized = plan.optimized;
  // nprobe only drives ANN strategies; zero it where it played no part.
  ex.nprobe = (plan.plan == QueryPlan::kPreFilter ||
               plan.plan == QueryPlan::kExact)
                  ? 0
                  : plan.nprobe;
  ex.candidates = plan.prefilter_vids.size();
  ex.rerank_budget = plan.quantized ? plan.rerank_k : 0;
  return ex;
}

// One plan's share of one worker's scans.
struct PlanSlot {
  explicit PlanSlot(uint32_t heap_k) : heap(heap_k) {}
  TopKHeap heap;
  ScanCounters counters;
  uint64_t partitions_quantized = 0;
  // Quarantine events, carrying the partition id (the merge derives the
  // count and the id list from the same vector).
  std::vector<uint32_t> quarantined;
};

}  // namespace

Result<std::vector<PlanResult>> QueryExecutor::Execute(
    const std::vector<PhysicalPlan>& plans) {
  const size_t n = plans.size();
  std::vector<PlanResult> results(n);
  if (n == 0) return results;
  for (size_t i = 0; i < n; ++i) results[i].explain = PlannerFacts(plans[i]);

  // Split the group by strategy: partition-scanning plans share scans;
  // pre-filter plans score their own candidate sets.
  std::vector<size_t> scan_plans;   // kUnfiltered / kPostFilter / kExact
  std::vector<size_t> pre_plans;    // kPreFilter
  for (size_t i = 0; i < n; ++i) {
    (plans[i].plan == QueryPlan::kPreFilter ? pre_plans : scan_plans)
        .push_back(i);
  }

  // Phase 1: probe-set op. Invert into (partition -> probing plans).
  std::map<uint32_t, std::vector<size_t>> fanin;
  if (!scan_plans.empty()) {
    std::vector<size_t> ann_plans;
    std::vector<uint32_t> physical;  // non-delta partitions with rows
    bool physical_loaded = false;
    for (const size_t idx : scan_plans) {
      if (plans[idx].plan == QueryPlan::kExact) {
        // Exhaustive: every partition physically present in the vectors
        // table (not the centroid metadata — exact search must stay
        // exhaustive even if the two ever disagree), plus delta below.
        if (!physical_loaded) {
          MICRONN_ASSIGN_OR_RETURN(physical, ListPartitions(ctx_.vectors));
          std::erase(physical, kDeltaPartition);  // added once below
          physical_loaded = true;
        }
        for (const uint32_t partition : physical) {
          fanin[partition].push_back(idx);
        }
        results[idx].explain.partitions_scanned = physical.size() + 1;
      } else {
        ann_plans.push_back(idx);
      }
    }
    if (!ann_plans.empty()) {
      if (ctx_.centroids == nullptr) {
        return Status::InvalidArgument(
            "executor needs a centroid set for ANN plans");
      }
      const CentroidSet& cset = *ctx_.centroids;
      std::vector<ProbeRequest> reqs;
      reqs.reserve(ann_plans.size());
      for (const size_t idx : ann_plans) {
        reqs.push_back(ProbeRequest{plans[idx].query.data(),
                                    plans[idx].nprobe});
      }
      const std::vector<std::vector<uint32_t>> probe_sets =
          ComputeProbeSets(cset, ctx_.dim, reqs);
      for (size_t a = 0; a < ann_plans.size(); ++a) {
        const size_t idx = ann_plans[a];
        for (const uint32_t partition : probe_sets[a]) {
          fanin[partition].push_back(idx);
        }
        QueryExplain& ex = results[idx].explain;
        ex.probe_pairs = probe_sets[a].size();
        // +1: the delta partition (Algorithm 2 line 3, added below).
        ex.partitions_scanned = probe_sets[a].size() + 1;
      }
    }
    // Every partition-scanning plan visits the delta store.
    fanin[kDeltaPartition] = scan_plans;
  }

  std::vector<PartitionWork> work;
  work.reserve(fanin.size());
  for (auto& [partition, idxs] : fanin) {
    work.push_back(PartitionWork{partition, std::move(idxs)});
  }
  // Largest fan-in first: better load balance across workers.
  std::sort(work.begin(), work.end(),
            [](const PartitionWork& a, const PartitionWork& b) {
              return a.plan_idx.size() > b.plan_idx.size();
            });

  // A plan's scans are "shared" iff some partition it probes has fan-in
  // > 1 (with >= 2 scan plans that is always at least the delta scan).
  for (const PartitionWork& pw : work) {
    if (pw.plan_idx.size() < 2) continue;
    for (const size_t idx : pw.plan_idx) {
      results[idx].explain.shared_scan = true;
    }
  }

  // Load SQ8 parameters for every partition a quantized plan probes.
  // Partitions without a params row (unbuilt index, pre-SQ8 builds) keep
  // nullptr and fall back to the float scan.
  bool any_quantized = false;
  for (const size_t idx : scan_plans) {
    any_quantized |= plans[idx].quantized;
  }
  std::vector<std::unique_ptr<Sq8PartitionParams>> work_params(work.size());
  if (any_quantized && ctx_.sq8.has_value() && ctx_.sq8params.has_value()) {
    for (size_t i = 0; i < work.size(); ++i) {
      bool wanted = false;
      for (const size_t idx : work[i].plan_idx) {
        wanted |= plans[idx].quantized;
      }
      if (!wanted) continue;
      Result<std::optional<Sq8PartitionParams>> params =
          GetSq8Params(&*ctx_.sq8params, work[i].partition, ctx_.dim);
      if (!params.ok() && params.status().IsCorruption()) {
        // Quarantine: a corrupt params row disables the quantized
        // representation for this partition; its quantized plans fall
        // back to the full-precision float scan (params stays null).
        MICRONN_LOG(kWarn) << "quarantining SQ8 params of partition "
                           << work[i].partition << ": "
                           << params.status().ToString();
        for (const size_t idx : work[i].plan_idx) {
          if (plans[idx].quantized) {
            ++results[idx].explain.partitions_quarantined;
            results[idx].quarantined_partition_ids.push_back(
                work[i].partition);
          }
        }
        continue;
      }
      MICRONN_RETURN_IF_ERROR(params.status());
      if (!params->has_value()) continue;
      work_params[i] =
          std::make_unique<Sq8PartitionParams>(std::move(**params));
    }
  }
  // The rerank bound's error terms of every partition with params, keyed
  // by partition (a quantized plan's candidates from it were scored SQ8).
  std::unordered_map<uint32_t, Sq8RerankCandidate> sq8_error_terms;
  for (size_t i = 0; i < work.size(); ++i) {
    const Sq8PartitionParams* params = work_params[i].get();
    if (params == nullptr) continue;
    sq8_error_terms[work[i].partition] = Sq8RerankCandidate{
        .max_error = params->max_error,
        .reach = Sq8Reach(params->min.data(), params->scale.data(),
                          ctx_.dim)};
  }

  // Phase 2: partition-scan op. Each partition is scanned exactly once
  // per representation into per-(worker, plan) slots. Worker layout: pool
  // workers first, the calling thread last — the caller always drains
  // work too, so a scheduler leader executing a coalesced group never
  // idles while its scans sit queued (nested execution, see
  // ThreadPool::HelpWait).
  const size_t pool_threads =
      ctx_.pool != nullptr ? ctx_.pool->num_threads() : 0;
  const size_t n_workers = pool_threads + 1;
  struct WorkerState {
    std::unordered_map<size_t, PlanSlot> slots;  // by plan index
    // The slot of plan `idx`, created on the worker's first scan for it.
    PlanSlot& slot(const std::vector<PhysicalPlan>& plans, size_t idx) {
      return slots.try_emplace(idx, HeapK(plans[idx])).first->second;
    }
    ScanCounters physical;  // rows decoded once per shared scan
    // Physical partition scans: a partition whose fan-in splits by
    // representation is scanned once per representation and counts twice,
    // keeping the group counters consistent with `physical`.
    uint64_t physical_scans = 0;
    Status status;
  };
  std::vector<WorkerState> workers(n_workers);

  // Builds one kernel invocation's fan-in. When >= 2 of its targets carry
  // filters, the per-row attribute record is decoded once and every
  // distinct predicate (planner-deduped by equality, so duplicates share
  // a slot) is evaluated against it — instead of one attributes-table
  // lookup per filtered target per row.
  auto build_subscan = [&](const std::vector<size_t>& idxs,
                           WorkerState& ws) -> SubScan {
    SubScan s;
    s.targets.reserve(idxs.size());
    size_t filtered = 0;
    for (const size_t idx : idxs) {
      PlanSlot& slot = ws.slot(plans, idx);
      HeapScanTarget t;
      t.query = plans[idx].query.data();
      t.heap = &slot.heap;
      t.filter = plans[idx].filter != nullptr ? plans[idx].filter.get()
                                              : nullptr;
      t.counters = &slot.counters;
      s.targets.push_back(t);
      if (t.filter != nullptr) ++filtered;
    }
    if (filtered < 2 || !ctx_.attributes.has_value()) return s;
    // Slot per distinct filter instance; every filtered plan must carry
    // its predicate (they do — the planner binds them together).
    std::vector<const RowFilter*> distinct;
    auto preds =
        std::make_shared<std::vector<std::shared_ptr<const Predicate>>>();
    for (size_t i = 0; i < idxs.size(); ++i) {
      const RowFilter* f = s.targets[i].filter;
      if (f == nullptr) continue;
      const std::shared_ptr<const Predicate>& pred =
          plans[idxs[i]].predicate;
      if (pred == nullptr) return s;  // no predicate: per-target fallback
      size_t slot = 0;
      for (; slot < distinct.size(); ++slot) {
        if (distinct[slot] == f) break;
      }
      if (slot == distinct.size()) {
        distinct.push_back(f);
        preds->push_back(pred);
      }
      s.targets[i].filter_slot = static_cast<int>(slot);
    }
    s.n_slots = distinct.size();
    BTree attributes = *ctx_.attributes;
    s.eval = [attributes, preds](uint64_t vid,
                                 bool* verdicts) mutable -> Status {
      MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> blob,
                               attributes.Get(key::U64(vid)));
      const size_t n_slots = preds->size();
      if (!blob.has_value()) {
        std::fill(verdicts, verdicts + n_slots, false);
        return Status::OK();
      }
      MICRONN_ASSIGN_OR_RETURN(AttributeRecord record,
                               DecodeAttributeRecord(*blob));
      for (size_t slot = 0; slot < n_slots; ++slot) {
        MICRONN_ASSIGN_OR_RETURN(bool keep,
                                 EvalPredicate(*(*preds)[slot], record));
        verdicts[slot] = keep;
      }
      return Status::OK();
    };
    return s;
  };

  auto process = [&](size_t worker_id, size_t work_i) -> Status {
    WorkerState& ws = workers[worker_id];
    const PartitionWork& pw = work[work_i];
    const Sq8PartitionParams* params = work_params[work_i].get();
    // Split the fan-in by representation: quantized plans read the SQ8
    // sidecar when this partition has parameters, the rest scan float.
    std::vector<size_t> quant_idx;
    std::vector<size_t> float_idx;
    if (params != nullptr) {
      for (const size_t idx : pw.plan_idx) {
        (plans[idx].quantized ? quant_idx : float_idx).push_back(idx);
      }
    } else {
      float_idx = pw.plan_idx;
    }
    if (!quant_idx.empty()) {
      SubScan s = build_subscan(quant_idx, ws);
      Status qs = ScanPartitionSq8IntoHeaps(
          *ctx_.sq8, pw.partition, ctx_.metric, ctx_.dim,
          params->min.data(), params->scale.data(), s.targets.data(),
          s.targets.size(), &ws.physical, s.eval ? &s.eval : nullptr,
          s.n_slots);
      if (!qs.ok() && qs.IsCorruption()) {
        // Quarantine: a corrupt SQ8 sidecar page fails this partition's
        // quantized scan. Rows decoded before the corruption came from
        // verified pages (genuine rows, approximate distances) and stay
        // in the heaps; the float re-scan below covers the full partition
        // so no candidate is lost, and the mandatory full-precision
        // rerank re-scores every survivor exactly.
        MICRONN_LOG(kWarn) << "quarantining SQ8 sidecar of partition "
                           << pw.partition << ": " << qs.ToString();
        for (const size_t idx : quant_idx) {
          ws.slot(plans, idx).quarantined.push_back(pw.partition);
          float_idx.push_back(idx);
        }
      } else {
        MICRONN_RETURN_IF_ERROR(qs);
        ++ws.physical_scans;
        for (const size_t idx : quant_idx) {
          ++ws.slot(plans, idx).partitions_quantized;
        }
      }
    }
    if (!float_idx.empty()) {
      SubScan s = build_subscan(float_idx, ws);
      MICRONN_RETURN_IF_ERROR(ScanPartitionIntoHeaps(
          ctx_.vectors, pw.partition, ctx_.metric, ctx_.dim,
          s.targets.data(), s.targets.size(), &ws.physical,
          s.eval ? &s.eval : nullptr, s.n_slots));
      ++ws.physical_scans;
    }
    return Status::OK();
  };

  // Read-ahead over the work list: while a worker scans partition i, the
  // leaf pages of the next `prefetch_depth` unclaimed partitions are
  // issued as one best-effort batched read each, so their scans start
  // warm. The claim cursor only moves forward, so each partition is
  // prefetched at most once across all workers.
  //
  // Without async_prefetch each batch is reaped as soon as it is
  // submitted. With it, the handle parks in the claimed-ahead item's slot
  // and the worker that later claims that item reaps it right before
  // scanning, so on the uring backend the reads proceed in the kernel
  // while the intervening partitions are scored.
  const bool prefetch_on = ctx_.pager != nullptr && ctx_.prefetch_depth > 0;
  const bool async_on = prefetch_on && ctx_.async_prefetch;
  const PrefetchContext pctx{ctx_.pager, ctx_.snapshot_seq, async_on};
  const PrefetchContext* prefetch_ctx = prefetch_on ? &pctx : nullptr;
  std::unique_ptr<std::atomic<AsyncPrefetch*>[]> async_slots;
  if (async_on) {
    async_slots.reset(new std::atomic<AsyncPrefetch*>[work.size()]);
    for (size_t i = 0; i < work.size(); ++i) {
      async_slots[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  std::atomic<size_t> prefetch_cursor{0};
  auto prefetch_one = [&](size_t work_i) {
    const PartitionWork& pw = work[work_i];
    // Mirror process()'s representation split so the read-ahead touches
    // exactly the tables the scan will.
    bool want_quant = false;
    bool want_float = false;
    if (work_params[work_i] != nullptr) {
      for (const size_t idx : pw.plan_idx) {
        (plans[idx].quantized ? want_quant : want_float) = true;
      }
    } else {
      want_float = true;
    }
    constexpr size_t kMaxPrefetchPages = 1024;  // 4 MiB per partition, max
    std::vector<PageId> pages;
    if (want_quant && ctx_.sq8.has_value()) {
      CollectPartitionLeafPages(*ctx_.sq8, pw.partition, kMaxPrefetchPages,
                                &pages)
          .ok();
    }
    if (want_float) {
      CollectPartitionLeafPages(ctx_.vectors, pw.partition, kMaxPrefetchPages,
                                &pages)
          .ok();
    }
    if (pages.empty()) return;
    std::unique_ptr<AsyncPrefetch> h =
        ctx_.pager->PrefetchPages(pages, ctx_.snapshot_seq);
    if (h == nullptr) return;
    if (async_on) {
      async_slots[work_i].store(h.release(), std::memory_order_release);
    } else {
      h->Finish();
    }
  };

  std::atomic<size_t> next_work{0};
  auto drain = [&](size_t w) {
    // Fail fast: once this worker hits an error the group is doomed, so
    // stop claiming work items instead of scanning the rest.
    for (; workers[w].status.ok();) {
      const size_t i = next_work.fetch_add(1);
      if (i >= work.size()) break;
      if (prefetch_on) {
        // Claim-ahead: advance the shared cursor through [i, i + depth],
        // skipping anything already claimed by another worker. Covering
        // the *current* item matters for the items a worker reaches
        // before any claim-ahead got there (the first item of each
        // drain, and racy claims under many workers): one batched leaf
        // read replaces a cold scan's page-by-page demand reads.
        const size_t target =
            std::min(work.size(),
                     i + 1 + static_cast<size_t>(ctx_.prefetch_depth));
        size_t cur = prefetch_cursor.load(std::memory_order_relaxed);
        for (;;) {
          const size_t next = std::max(cur, i);
          if (next >= target) break;
          if (prefetch_cursor.compare_exchange_weak(
                  cur, next + 1, std::memory_order_relaxed)) {
            prefetch_one(next);
            cur = next + 1;
          }
        }
      }
      if (async_on) {
        // Reap the read-ahead covering this partition (submitted when an
        // earlier item was claimed) so its pages are installed before the
        // scan; the I/O itself ran while the intervening items scored.
        if (AsyncPrefetch* h =
                async_slots[i].exchange(nullptr, std::memory_order_acquire)) {
          std::unique_ptr<AsyncPrefetch>(h)->Finish();
        }
      }
      Status st = process(w, i);
      if (!st.ok()) workers[w].status = st;
    }
  };
  if (ctx_.pool != nullptr && work.size() > 1) {
    WaitGroup wg;
    const size_t helpers = std::min(pool_threads, work.size() - 1);
    wg.Add(helpers);
    for (size_t w = 0; w < helpers; ++w) {
      ctx_.pool->Submit([&, w] {
        drain(w);
        wg.Done();
      });
    }
    drain(pool_threads);  // the caller's slot
    ctx_.pool->HelpWait(&wg);
  } else {
    drain(pool_threads);
  }
  if (async_on) {
    // Finish any claimed-ahead submissions nobody reaped (error bail-out,
    // or a slot filled after its item was already scanned) while the
    // caller's snapshot is still registered.
    for (size_t i = 0; i < work.size(); ++i) {
      if (AsyncPrefetch* h =
              async_slots[i].exchange(nullptr, std::memory_order_acquire)) {
        std::unique_ptr<AsyncPrefetch>(h)->Finish();
      }
    }
  }
  for (const WorkerState& ws : workers) {
    MICRONN_RETURN_IF_ERROR(ws.status);
  }

  // Phase 3: merge op — fold every worker's plan slots into the results,
  // and its physical scans into the group counters.
  uint64_t group_partitions_scanned = 0;
  uint64_t group_rows_scanned = 0;
  {
    std::unordered_map<size_t, TopKHeap> merged;
    merged.reserve(scan_plans.size());
    for (const size_t idx : scan_plans) {
      merged.try_emplace(idx, TopKHeap(HeapK(plans[idx])));
    }
    for (const WorkerState& ws : workers) {
      for (const auto& [idx, slot] : ws.slots) {
        merged.at(idx).Merge(slot.heap);
        QueryExplain& ex = results[idx].explain;
        ex.rows_scanned += slot.counters.rows_scanned;
        ex.rows_filtered += slot.counters.rows_filtered;
        ex.rows_quarantined += slot.counters.rows_quarantined;
        ex.partitions_quantized += slot.partitions_quantized;
        ex.partitions_quarantined += slot.quarantined.size();
        std::vector<uint32_t>& ids = results[idx].quarantined_partition_ids;
        ids.insert(ids.end(), slot.quarantined.begin(),
                   slot.quarantined.end());
      }
      group_partitions_scanned += ws.physical_scans;
      group_rows_scanned += ws.physical.rows_scanned;
    }
    for (const size_t idx : scan_plans) {
      results[idx].neighbors = merged.at(idx).TakeSorted();
    }
  }

  // Phase 3.5: rerank op — a quantized plan's candidate pool (up to
  // k*alpha rows ranked by approximate distance) is re-scored at full
  // precision; reported distances are always exact. Only the candidates
  // whose error-bounded distance can still reach the top-k are re-read
  // (SelectSq8RerankCandidates); the result equals a rerank of the whole
  // pool. Each candidate carries the partition its scan read it from, so
  // the sorted locations go straight to SearchByLocations — one cursor
  // pass over the vectors table, no vidmap reads. A quantized plan none of
  // whose partitions had SQ8 data already holds exact distances: truncate
  // instead of re-reading.
  for (const size_t idx : scan_plans) {
    const PhysicalPlan& plan = plans[idx];
    if (!plan.quantized) continue;
    PlanResult& r = results[idx];
    QueryExplain& ex = r.explain;
    // A quarantined partition also forces the rerank: its float re-scan
    // may have duplicated rows the partial quantized scan already pushed,
    // and the deduped exact re-score below removes them.
    if (ex.partitions_quantized == 0 && ex.partitions_quarantined == 0) {
      if (r.neighbors.size() > plan.k) r.neighbors.resize(plan.k);
      continue;
    }
    ex.quantized = ex.partitions_quantized > 0;
    ex.rerank_candidates = r.neighbors.size();
    // A candidate's error is its partition's max_error, 0 when it was
    // scored at full precision. No pruning after a quarantine: the
    // partial quantized scan and its float re-scan may both hold a row.
    std::vector<bool> keep(r.neighbors.size(), true);
    if (ex.partitions_quarantined == 0) {
      std::vector<Sq8RerankCandidate> cands;
      cands.reserve(r.neighbors.size());
      for (const Neighbor& nb : r.neighbors) {
        auto it = sq8_error_terms.find(nb.partition);
        Sq8RerankCandidate c =
            it != sq8_error_terms.end() ? it->second : Sq8RerankCandidate{};
        c.approx = nb.distance;
        cands.push_back(c);
      }
      SelectSq8RerankCandidates(ctx_.metric, plan.query.data(), ctx_.dim,
                                cands, plan.k, &keep);
    }
    std::vector<RowLocation> rows;
    rows.reserve(r.neighbors.size());
    for (size_t i = 0; i < r.neighbors.size(); ++i) {
      const Neighbor& nb = r.neighbors[i];
      if (keep[i]) rows.emplace_back(nb.partition, nb.id);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    ScanCounters reranked;
    MICRONN_ASSIGN_OR_RETURN(
        r.neighbors,
        SearchByLocations(ctx_.vectors, ctx_.metric, ctx_.dim,
                          plan.query.data(), plan.k, rows, ctx_.pool,
                          &reranked, prefetch_ctx));
    ex.rows_reranked = reranked.rows_scanned;
  }

  // Phase 4: pre-filter plans — vectorized candidate scoring over the
  // same pool (the §3.5 pre-filtering executor's second stage).
  for (const size_t idx : pre_plans) {
    const PhysicalPlan& plan = plans[idx];
    ScanCounters scored;
    MICRONN_ASSIGN_OR_RETURN(
        results[idx].neighbors,
        SearchByVids(ctx_.vectors, ctx_.vidmap, ctx_.metric, ctx_.dim,
                     plan.query.data(), plan.k, plan.prefilter_vids,
                     ctx_.pool, &scored, prefetch_ctx));
    results[idx].explain.rows_scanned = scored.rows_scanned;
    group_rows_scanned += scored.rows_scanned;
  }

  // Group counters: the same on every plan of the group.
  uint64_t group_probe_pairs = 0;
  for (const PlanResult& r : results) {
    group_probe_pairs += r.explain.probe_pairs;
  }
  for (PlanResult& r : results) {
    r.explain.group_size = static_cast<uint32_t>(n);
    r.explain.group_partitions_scanned = group_partitions_scanned;
    r.explain.group_rows_scanned = group_rows_scanned;
    r.explain.group_probe_pairs = group_probe_pairs;
  }
  return results;
}

}  // namespace micronn
