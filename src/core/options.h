// Public option and request/response types of the MicroNN API.
#ifndef MICRONN_CORE_OPTIONS_H_
#define MICRONN_CORE_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "numerics/metric.h"
#include "query/explain.h"
#include "query/optimizer.h"
#include "query/predicate.h"
#include "query/value.h"
#include "storage/pager.h"

namespace micronn {

/// Configuration of a MicroNN database. `dim` is mandatory when creating;
/// on reopen, persisted values win and a non-zero mismatch is an error.
struct DbOptions {
  /// Vector dimensionality (e.g. 128 for SIFT, 512 for CLIP-style).
  uint32_t dim = 0;
  /// Similarity metric. For kCosine, vectors and queries are L2-normalized
  /// on the way in, so stored blobs are unit vectors.
  Metric metric = Metric::kL2;

  // --- Indexing (paper §3.1) ---
  /// Target vectors per IVF partition; the paper defaults to 100.
  uint32_t target_cluster_size = 100;
  /// Mini-batch size s of Algorithm 1.
  uint32_t minibatch_size = 1024;
  /// Training iterations n of Algorithm 1.
  uint32_t train_iterations = 30;
  /// Balance-penalty weight (0 disables balancing).
  float balance_lambda = 0.5f;
  /// Seed for clustering and sampling (reproducible builds).
  uint64_t seed = 42;

  // --- Query (paper §3.3/§3.5) ---
  /// Default number of partitions to probe when a request leaves nprobe 0.
  uint32_t default_nprobe = 8;
  /// Worker threads for parallel partition scans.
  size_t search_threads = 2;
  /// Build a two-level centroid index once the partition count reaches
  /// this threshold (0 disables). Implements §3.2's "the centroid table
  /// itself could also be indexed" — removes the centroid-scan bottleneck
  /// the paper observes at ~100k centroids (§4.3.3).
  uint32_t centroid_index_threshold = 4096;
  /// Super-clusters examined per query when the centroid index is active
  /// (recall/latency knob of the two-level lookup).
  uint32_t centroid_super_probe = 8;

  // --- Quantized scans (SQ8) ---
  // ANN partition scans read the int8 scalar-quantized copy of each row
  // (~4x fewer scanned bytes) and re-score at full precision those of the
  // top k*alpha candidates (alpha = kSq8RerankAlpha, query/planner.h)
  // whose error-bounded distance can still reach the top-k. Per-partition
  // parameters are maintained by index builds, upserts and delta flushes;
  // partitions without parameters (e.g. before the first build)
  // transparently scan full precision. Exact and pre-filter plans never
  // use the quantized path. Opt out per request via
  // SearchRequest::quantized.
  /// SQ8 drift requantization: delta flushes quantize moved rows with
  /// their destination partition's existing (possibly stale) bounds;
  /// codes that fall outside the box saturate, and such a row is flagged
  /// clamped (it leaves the partition's error bound alone, and every
  /// rerank that ranks it re-reads it). Maintain() tracks the
  /// per-partition saturated-code ratio of each flush and requantizes a
  /// partition in place (fresh bounds + rewritten sidecar rows, which
  /// clears the flags) when the ratio exceeds this threshold. <= 0
  /// disables drift requantization (stale bounds and flagged rows then
  /// persist until the next full rebuild).
  double sq8_requantize_saturation = 0.10;

  // --- Maintenance (paper §3.6) ---
  /// Full rebuild when avg partition size grows by this fraction over the
  /// post-build baseline (0.5 = +50%, the paper's setting).
  double rebuild_growth_threshold = 0.5;
  /// Rows per transaction during chunked rebuild/cleanup (bounds writer
  /// memory).
  size_t rebuild_chunk_rows = 2048;

  // --- Read I/O & prefetch ---
  /// Partitions of read-ahead per executor worker: while a worker scans
  /// one partition, the leaf pages of up to this many upcoming partitions
  /// in the group's work list are fetched as batched best-effort reads
  /// (io_uring when available, else looped pread), so cold-cache scans
  /// overlap I/O with scoring. Also enables the batched point-read path
  /// inside rerank / pre-filter stages. 0 disables all read-ahead (every
  /// page is a blocking demand read, the pre-batching behavior). Results
  /// are bit-identical at any depth. The I/O backend itself is selected by
  /// PagerOptions::io_backend (env override MICRONN_IO_BACKEND).
  /// See docs/ARCHITECTURE.md "Read I/O & prefetch".
  uint32_t prefetch_depth = 2;
  /// When a read-ahead is reaped. Every read-ahead is *submitted* to the
  /// I/O backend (FileHandle::SubmitRead) through the one entry point
  /// Pager::PrefetchPages. On: claimed-ahead partitions (and rerank /
  /// pre-filter point-read chunks) are reaped right before their pages
  /// are needed, so the current partition is scored while those reads
  /// are in flight. On io_uring the submit returns as soon as the SQEs are
  /// consumed; the pread backend emulates (submit parks the batch, reap
  /// performs it) so results and behavior stay identical across backends.
  /// Off: each batch is reaped as soon as it is submitted. No effect at
  /// prefetch_depth 0. Results are bit-identical either way.
  bool async_prefetch = true;

  // --- Hybrid search ---
  /// String columns that also get a full-text (MATCH) index.
  std::vector<std::string> fts_columns;

  // --- Storage ---
  /// Storage-layer tuning; see PagerOptions (src/storage/pager.h) for the
  /// full list. The knobs that matter most in practice, with defaults:
  ///   - cache_bytes (8 MiB): page-cache budget, the memory knob of the
  ///     paper's Small/Large device profiles; 0 disables caching.
  ///   - sync_on_commit (false): fdatasync the WAL before a commit is
  ///     acknowledged; concurrent committers share one WAL write and one
  ///     fsync per group (group commit).
  ///   - auto_checkpoint_frames (16384): best-effort incremental
  ///     checkpoint threshold; folds up to the oldest reader snapshot and
  ///     never blocks foreground work. 0 disables.
  ///   - wal_backpressure_frames (65536): hard cap past which a committer
  ///     performs a blocking full checkpoint so the WAL stops growing.
  ///     0 disables.
  ///   - wal_backpressure_wait_ms (1000): how long that blocking
  ///     checkpoint waits for readers to drain before settling for the
  ///     partial backfill it achieved.
  ///   - checksum_pages (true): CRC32C verification of every main-file
  ///     page against the <db>-sum sidecar; mismatches surface as
  ///     Corruption, never as wrong rows.
  ///   - enospc_probe_backoff_ms (10) / enospc_probe_max_backoff_ms
  ///     (5000): a full disk always degrades the store to read-only
  ///     (reads keep serving, writes fail fast); these pace the space
  ///     probe that recovers it automatically once space returns.
  /// docs/ARCHITECTURE.md and docs/DURABILITY.md explain what each buys.
  PagerOptions pager;
};

/// One upsert: insert, or replace if `asset_id` already exists (§3.6
/// "inserts (with 'upsert' semantics in case the asset ID already exists)").
struct UpsertRequest {
  std::string asset_id;
  std::vector<float> vector;
  AttributeRecord attributes;
};

/// Plan override for hybrid queries (benchmarks compare forced plans
/// against the optimizer, Fig. 7).
enum class PlanOverride { kAuto, kForcePreFilter, kForcePostFilter };

struct SearchRequest {
  std::vector<float> query;
  uint32_t k = 10;
  /// Partitions to probe; 0 means DbOptions::default_nprobe.
  uint32_t nprobe = 0;
  /// Optional attribute filter (hybrid query).
  std::optional<Predicate> filter;
  PlanOverride plan = PlanOverride::kAuto;
  /// Exhaustive exact KNN instead of ANN.
  bool exact = false;
  /// Quantized (SQ8) ANN partition scans; false forces full-precision
  /// scans (benchmarks and tests compare the two paths over one
  /// snapshot).
  bool quantized = true;
};

struct ResultItem {
  std::string asset_id;
  uint64_t vid = 0;
  float distance = 0.f;
};

struct SearchResponse {
  std::vector<ResultItem> items;
  /// EXPLAIN-style report: plan, estimates, per-query counters, and the
  /// batch-group scan-sharing counters. `explain.ToString()` renders it.
  QueryExplain explain;
  /// Copy of `explain.plan`, kept only because the end-to-end benchmark's
  /// answer validation (e2ebench/src/data.cc) reads it; new code reads
  /// `explain.plan`.
  QueryPlan plan = QueryPlan::kUnfiltered;
};

/// What Maintain() did.
struct MaintenanceReport {
  bool full_rebuild = false;
  uint64_t delta_flushed = 0;   // rows moved out of the delta store
  uint64_t row_changes = 0;     // logical row writes performed
  /// Partitions whose SQ8 parameters drifted past
  /// DbOptions::sq8_requantize_saturation and were requantized in place.
  uint64_t partitions_requantized = 0;
};

}  // namespace micronn

#endif  // MICRONN_CORE_OPTIONS_H_
