#include "ivf/search.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/memory_tracker.h"
#include "numerics/aligned_buffer.h"
#include "numerics/distance.h"
#include "numerics/sq8.h"
#include "storage/key_encoding.h"

namespace micronn {

namespace {

// The empty filter passed to ScanPartition when no pushdown applies.
const RowFilter& NoFilter() {
  static const RowFilter empty;
  return empty;
}

// True when every target carries the same filter pointer, so the filter
// (or its absence) can run once inside the scan, below row decode.
bool HasSharedFilter(const HeapScanTarget* targets, size_t n_targets) {
  for (size_t i = 1; i < n_targets; ++i) {
    if (targets[i].filter != targets[0].filter) return false;
  }
  return true;
}

// Pushes one scored block when filtering already happened inside the scan
// (shared-filter path): every row goes to every heap.
void PushBlockAll(uint32_t partition, const uint64_t* vids, size_t count,
                  const float* dist, HeapScanTarget* targets,
                  size_t n_targets) {
  for (size_t i = 0; i < n_targets; ++i) {
    const float* row = dist + i * count;
    TopKHeap* heap = targets[i].heap;
    for (size_t r = 0; r < count; ++r) {
      heap->Push(vids[r], row[r], partition);
    }
  }
}

// Pushes one scored block in the heterogeneous-filter path. With a shared
// evaluator, each row's attribute record is decoded once and all distinct
// predicates are evaluated against it (`verdicts` is the per-scan slot
// buffer, n_slots entries); targets consume verdicts via filter_slot.
// Without one, each target's RowFilter runs per row — exactly what a
// dedicated filtered scan would have done. Per-target counters are
// identical either way.
Status PushBlockHetero(uint32_t partition, const uint64_t* vids, size_t count,
                       const float* dist, HeapScanTarget* targets,
                       size_t n_targets, const SharedFilterEval* shared_eval,
                       bool* verdicts) {
  if (shared_eval != nullptr) {
    for (size_t r = 0; r < count; ++r) {
      Status eval = (*shared_eval)(vids[r], verdicts);
      if (!eval.ok() && eval.IsCorruption()) {
        // Quarantine: the row's attribute record failed its checksum.
        // Skip it for every filtered target (conservatively: it does not
        // match) instead of failing the whole group.
        for (size_t i = 0; i < n_targets; ++i) {
          HeapScanTarget& t = targets[i];
          if (t.filter_slot < 0 && t.filter == nullptr) {
            t.heap->Push(vids[r], dist[i * count + r], partition);
            if (t.counters != nullptr) ++t.counters->rows_scanned;
          } else if (t.counters != nullptr) {
            ++t.counters->rows_quarantined;
          }
        }
        continue;
      }
      MICRONN_RETURN_IF_ERROR(eval);
      for (size_t i = 0; i < n_targets; ++i) {
        HeapScanTarget& t = targets[i];
        bool keep = true;
        if (t.filter_slot >= 0) {
          keep = verdicts[t.filter_slot];
        } else if (t.filter != nullptr && *t.filter) {
          // Filtered target without a verdict slot: fall back to its own
          // row filter (the search.h contract).
          Result<bool> r_keep = (*t.filter)(vids[r]);
          if (!r_keep.ok() && r_keep.status().IsCorruption()) {
            if (t.counters != nullptr) ++t.counters->rows_quarantined;
            continue;
          }
          MICRONN_RETURN_IF_ERROR(r_keep.status());
          keep = *r_keep;
        }
        if (!keep) {
          if (t.counters != nullptr) ++t.counters->rows_filtered;
          continue;
        }
        t.heap->Push(vids[r], dist[i * count + r], partition);
        if (t.counters != nullptr) ++t.counters->rows_scanned;
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n_targets; ++i) {
    const float* row = dist + i * count;
    TopKHeap* heap = targets[i].heap;
    ScanCounters* counters = targets[i].counters;
    const RowFilter* filter = targets[i].filter;
    if (filter == nullptr || !*filter) {
      for (size_t r = 0; r < count; ++r) {
        heap->Push(vids[r], row[r], partition);
      }
      if (counters != nullptr) counters->rows_scanned += count;
      continue;
    }
    for (size_t r = 0; r < count; ++r) {
      Result<bool> keep = (*filter)(vids[r]);
      if (!keep.ok() && keep.status().IsCorruption()) {
        // Quarantined row: corrupt attribute record, skip instead of fail.
        if (counters != nullptr) ++counters->rows_quarantined;
        continue;
      }
      MICRONN_RETURN_IF_ERROR(keep.status());
      if (*keep) {
        heap->Push(vids[r], row[r], partition);
        if (counters != nullptr) ++counters->rows_scanned;
      } else if (counters != nullptr) {
        ++counters->rows_filtered;
      }
    }
  }
  return Status::OK();
}

// Shared-filter epilogue: the physical scan counters apply to every target
// verbatim (each saw exactly the rows a dedicated scan would have).
void FoldSharedCounters(const ScanCounters& sc, HeapScanTarget* targets,
                        size_t n_targets, ScanCounters* scan_counters) {
  for (size_t i = 0; i < n_targets; ++i) {
    if (targets[i].counters != nullptr) {
      targets[i].counters->rows_scanned += sc.rows_scanned;
      targets[i].counters->rows_filtered += sc.rows_filtered;
      targets[i].counters->rows_quarantined += sc.rows_quarantined;
    }
  }
  if (scan_counters != nullptr) {
    scan_counters->rows_scanned += sc.rows_scanned;
    scan_counters->rows_filtered += sc.rows_filtered;
    scan_counters->rows_quarantined += sc.rows_quarantined;
  }
}

}  // namespace

Status ScanPartitionIntoHeaps(BTree vectors, uint32_t partition, Metric metric,
                              uint32_t dim, HeapScanTarget* targets,
                              size_t n_targets, ScanCounters* scan_counters,
                              const SharedFilterEval* shared_eval,
                              size_t n_slots) {
  if (n_targets == 0) return Status::OK();

  // Gather the queries into a contiguous submatrix so one
  // DistanceManyToMany call covers (targets x block) — the shared scan.
  // A single target skips the gather and uses DistanceOneToMany directly
  // (which DistanceManyToMany delegates to, so results are bit-identical
  // either way).
  AlignedFloatBuffer subq;
  if (n_targets > 1) {
    subq.Reset(n_targets * dim);
    for (size_t i = 0; i < n_targets; ++i) {
      std::memcpy(subq.data() + i * dim, targets[i].query,
                  dim * sizeof(float));
    }
  }
  std::vector<float> dist(n_targets * kScanBlockRows);
  ScopedMemoryReservation mem(MemoryCategory::kQueryExec,
                              (subq.size() + dist.size()) * sizeof(float));

  auto score_block = [&](const ScanBlock& block) {
    if (n_targets == 1) {
      DistanceOneToMany(metric, targets[0].query, block.data, block.count,
                        dim, dist.data());
    } else {
      DistanceManyToMany(metric, subq.data(), n_targets, block.data,
                         block.count, dim, dist.data());
    }
  };

  // Filter pushdown: one shared filter (or none) runs inside the scan so
  // failing rows skip decode; the scan counters then apply to every
  // target verbatim.
  if (HasSharedFilter(targets, n_targets)) {
    const RowFilter& filter =
        targets[0].filter != nullptr ? *targets[0].filter : NoFilter();
    ScanCounters sc;
    MICRONN_RETURN_IF_ERROR(ScanPartition(
        vectors, partition, dim, filter,
        [&](const ScanBlock& block) -> Status {
          score_block(block);
          PushBlockAll(block.partition, block.vids, block.count, dist.data(),
                       targets, n_targets);
          return Status::OK();
        },
        &sc));
    FoldSharedCounters(sc, targets, n_targets, scan_counters);
    return Status::OK();
  }

  // Heterogeneous filters: scan unfiltered, evaluate per row (sharing the
  // attribute decode through `shared_eval` when the caller provides one).
  std::unique_ptr<bool[]> verdicts(n_slots > 0 ? new bool[n_slots]()
                                               : nullptr);
  return ScanPartition(
      vectors, partition, dim, /*filter=*/NoFilter(),
      [&](const ScanBlock& block) -> Status {
        score_block(block);
        return PushBlockHetero(block.partition, block.vids, block.count,
                               dist.data(), targets, n_targets, shared_eval,
                               verdicts.get());
      },
      scan_counters);
}

Status ScanPartitionSq8IntoHeaps(BTree sq8, uint32_t partition, Metric metric,
                                 uint32_t dim, const float* min,
                                 const float* scale, HeapScanTarget* targets,
                                 size_t n_targets, ScanCounters* scan_counters,
                                 const SharedFilterEval* shared_eval,
                                 size_t n_slots) {
  if (n_targets == 0) return Status::OK();

  // Fold the partition's affine parameters into each query once; block
  // scoring then touches only code bytes.
  std::vector<Sq8QueryContext> ctx(n_targets);
  for (size_t i = 0; i < n_targets; ++i) {
    ctx[i].Prepare(metric, targets[i].query, min, scale, dim);
  }
  std::vector<float> dist(n_targets * kScanBlockRows);
  ScopedMemoryReservation mem(
      MemoryCategory::kQueryExec,
      (dist.size() + n_targets * 2 * dim) * sizeof(float));

  // Queries stream over each code block while it is cache-hot — the same
  // blocking DistanceManyToMany applies to float rows.
  auto score_block = [&](const Sq8ScanBlock& block) {
    for (size_t i = 0; i < n_targets; ++i) {
      Sq8DistanceOneToMany(ctx[i], block.codes, block.count,
                           dist.data() + i * block.count);
    }
  };

  if (HasSharedFilter(targets, n_targets)) {
    const RowFilter& filter =
        targets[0].filter != nullptr ? *targets[0].filter : NoFilter();
    ScanCounters sc;
    MICRONN_RETURN_IF_ERROR(ScanPartitionSq8(
        sq8, partition, dim, filter,
        [&](const Sq8ScanBlock& block) -> Status {
          score_block(block);
          PushBlockAll(block.partition, block.vids, block.count, dist.data(),
                       targets, n_targets);
          return Status::OK();
        },
        &sc));
    FoldSharedCounters(sc, targets, n_targets, scan_counters);
    return Status::OK();
  }

  std::unique_ptr<bool[]> verdicts(n_slots > 0 ? new bool[n_slots]()
                                               : nullptr);
  return ScanPartitionSq8(
      sq8, partition, dim, /*filter=*/NoFilter(),
      [&](const Sq8ScanBlock& block) -> Status {
        score_block(block);
        return PushBlockHetero(block.partition, block.vids, block.count,
                               dist.data(), targets, n_targets, shared_eval,
                               verdicts.get());
      },
      scan_counters);
}

namespace {

// Best-effort batched read-ahead of the leaves a sorted key run will
// touch. Errors are swallowed: the demand reads behind it retry (and
// report) anything that matters.
void PrefetchLeaves(BTree table, std::span<const std::string> sorted_keys,
                    const PrefetchContext* prefetch) {
  if (prefetch == nullptr || prefetch->pager == nullptr ||
      sorted_keys.empty()) {
    return;
  }
  std::vector<PageId> pages;
  if (!table.CollectLeafPages(sorted_keys, &pages).ok() || pages.empty()) {
    return;
  }
  if (std::unique_ptr<AsyncPrefetch> h =
          prefetch->pager->PrefetchPages(pages, prefetch->snapshot_seq)) {
    h->Finish();
  }
}

}  // namespace

Status VectorRowReader::Read(const RowLocation& at, VectorRow* row) {
  const auto [partition, vid] = at;
  const std::string key = VectorKey(partition, vid);
  MICRONN_RETURN_IF_ERROR(cursor_.SeekForward(key));
  if (!cursor_.Valid() || cursor_.key() != key) {
    return Status::Corruption("no vector row for vid " + std::to_string(vid) +
                              " in partition " + std::to_string(partition));
  }
  MICRONN_ASSIGN_OR_RETURN(std::string_view value,
                           cursor_.ValueView(&overflow_));
  return DecodeVectorRow(value, dim_, row);
}

Result<std::vector<Neighbor>> SearchByVids(BTree vectors, BTree vidmap,
                                           Metric metric, uint32_t dim,
                                           const float* query, uint32_t k,
                                           const std::vector<uint64_t>& vids,
                                           ThreadPool* pool,
                                           ScanCounters* counters,
                                           const PrefetchContext* prefetch) {
  // Vidmap stage: resolve vid -> partition. The vids arrive sorted, so the
  // vidmap point reads walk that tree in key order (and, with a prefetch
  // context, land as one batched read); sorting the locations turns the
  // vectors-table reads into partition-clustered runs.
  if (prefetch != nullptr && prefetch->pager != nullptr && !vids.empty()) {
    std::vector<std::string> keys;
    keys.reserve(vids.size());
    for (const uint64_t vid : vids) keys.push_back(key::U64(vid));
    PrefetchLeaves(vidmap, keys, prefetch);
  }
  std::vector<RowLocation> rows;
  rows.reserve(vids.size());
  for (const uint64_t vid : vids) {
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> loc,
                             vidmap.Get(key::U64(vid)));
    if (!loc.has_value()) continue;  // no such row
    uint32_t partition;
    MICRONN_RETURN_IF_ERROR(DecodeVidMapValue(*loc, &partition));
    rows.emplace_back(partition, vid);
  }
  std::sort(rows.begin(), rows.end());
  return SearchByLocations(vectors, metric, dim, query, k, rows, pool,
                           counters, prefetch);
}

Result<std::vector<Neighbor>> SearchByLocations(
    BTree vectors, Metric metric, uint32_t dim, const float* query,
    uint32_t k, std::span<const RowLocation> rows, ThreadPool* pool,
    ScanCounters* counters, const PrefetchContext* prefetch) {
  const size_t n_rows = rows.size();
  // VectorKey preserves (partition, vid) order, so the rows form one
  // sorted key run — batch its leaves ahead of the cursor walk. In async
  // mode the slices pipeline their own chunks instead (submit the next
  // chunk's leaves, score the current one, reap), so the global
  // submit-and-wait batch is skipped.
  const bool use_async =
      prefetch != nullptr && prefetch->pager != nullptr && prefetch->async;
  if (prefetch != nullptr && prefetch->pager != nullptr && !use_async &&
      !rows.empty()) {
    std::vector<std::string> keys;
    keys.reserve(rows.size());
    for (const auto& [partition, vid] : rows) {
      keys.push_back(VectorKey(partition, vid));
    }
    PrefetchLeaves(vectors, keys, prefetch);
  }

  // Fetch + decode into SIMD blocks and score with DistanceOneToMany, in
  // contiguous slices across the pool; each slice reads its sorted run
  // through one VectorRowReader.
  size_t n_tasks = 1;
  if (pool != nullptr && n_rows >= 2 * kScanBlockRows) {
    n_tasks = std::min(pool->num_threads(),
                       std::max<size_t>(1, n_rows / kScanBlockRows));
  }
  std::vector<TopKHeap> heaps(n_tasks, TopKHeap(k));
  std::vector<uint64_t> scored(n_tasks, 0);
  std::vector<Status> statuses(n_tasks);

  // Async pipelining granularity: enough rows per chunk that one leaf
  // batch covers a meaningful stretch of the sorted key run, small enough
  // that the first chunk's stall stays short.
  constexpr size_t kAsyncChunkRows = 2 * kScanBlockRows;

  // Submits the leaf pages behind rows [clo, chi) and returns the
  // in-flight handle (null when nothing was submitted — the demand reads
  // below cover everything regardless).
  auto submit_chunk = [&](size_t clo,
                          size_t chi) -> std::unique_ptr<AsyncPrefetch> {
    if (clo >= chi) return nullptr;
    std::vector<std::string> keys;
    keys.reserve(chi - clo);
    for (size_t r = clo; r < chi; ++r) {
      keys.push_back(VectorKey(rows[r].first, rows[r].second));
    }
    std::vector<PageId> pages;
    if (!vectors.CollectLeafPages(keys, &pages).ok() || pages.empty()) {
      return nullptr;
    }
    return prefetch->pager->PrefetchPages(pages, prefetch->snapshot_seq);
  };

  auto score_slice = [&](size_t t, size_t lo, size_t hi) -> Status {
    AlignedFloatBuffer block(kScanBlockRows * dim);
    std::vector<RowLocation> block_rows(kScanBlockRows);
    std::vector<float> dist(kScanBlockRows);
    ScopedMemoryReservation mem(
        MemoryCategory::kQueryExec,
        (block.size() + dist.size()) * sizeof(float) +
            block_rows.size() * sizeof(RowLocation));
    size_t fill = 0;
    auto flush = [&]() {
      if (fill == 0) return;
      DistanceOneToMany(metric, query, block.data(), fill, dim, dist.data());
      for (size_t r = 0; r < fill; ++r) {
        heaps[t].Push(block_rows[r].second, dist[r], block_rows[r].first);
      }
      scored[t] += fill;
      fill = 0;
    };
    // The submit/score/reap pipeline: while chunk c's rows are scored,
    // chunk c+1's leaf reads are in flight. `inflight` covers the chunk
    // about to be scored; Finish() lands its pages in the cache (or, on
    // any I/O hiccup, leaves the misses for the demand reads below, which
    // produce identical results). The unique_ptr reaps on early error
    // return too, so no submitted read outlives the caller's snapshot.
    std::unique_ptr<AsyncPrefetch> inflight;
    VectorRowReader reader(vectors, dim);
    VectorRow vr;
    if (use_async) {
      inflight = submit_chunk(lo, std::min(lo + kAsyncChunkRows, hi));
    }
    for (size_t clo = lo; clo < hi; clo += kAsyncChunkRows) {
      const size_t chi = std::min(clo + kAsyncChunkRows, hi);
      if (use_async) {
        if (inflight != nullptr) inflight->Finish();
        inflight = submit_chunk(chi, std::min(chi + kAsyncChunkRows, hi));
      }
      for (size_t i = clo; i < chi; ++i) {
        MICRONN_RETURN_IF_ERROR(reader.Read(rows[i], &vr));
        block_rows[fill] = rows[i];
        std::memcpy(block.data() + fill * dim, vr.vector_blob.data(),
                    dim * sizeof(float));
        if (++fill == kScanBlockRows) flush();
      }
    }
    flush();
    return Status::OK();
  };

  if (n_tasks == 1) {
    MICRONN_RETURN_IF_ERROR(score_slice(0, 0, n_rows));
  } else {
    WaitGroup wg;
    wg.Add(n_tasks - 1);
    for (size_t t = 1; t < n_tasks; ++t) {
      const size_t lo = t * n_rows / n_tasks;
      const size_t hi = (t + 1) * n_rows / n_tasks;
      pool->Submit([&, t, lo, hi] {
        statuses[t] = score_slice(t, lo, hi);
        wg.Done();
      });
    }
    // Slice 0 runs on the calling thread (nested execution: the caller
    // contributes instead of idling behind other groups' queued tasks).
    statuses[0] = score_slice(0, 0, n_rows / n_tasks);
    pool->HelpWait(&wg);
    for (const Status& st : statuses) {
      MICRONN_RETURN_IF_ERROR(st);
    }
  }
  if (counters != nullptr) {
    for (const uint64_t s : scored) counters->rows_scanned += s;
  }
  return MergeHeapsSorted(heaps, k);
}

double RecallAtK(const std::vector<Neighbor>& got,
                 const std::vector<Neighbor>& expected) {
  if (expected.empty()) return 1.0;
  std::unordered_set<uint64_t> truth;
  truth.reserve(expected.size());
  for (const Neighbor& n : expected) truth.insert(n.id);
  size_t hits = 0;
  for (const Neighbor& n : got) {
    hits += truth.count(n.id);
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace micronn
