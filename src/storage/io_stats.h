// I/O and row-change counters.
//
// Disk I/O is a first-class metric in the paper (requirement 3 in §2.1;
// Figure 10d counts database row changes of full vs incremental rebuilds).
// The pager and table layer maintain these counters so benchmarks can
// report exactly what the paper reports.
#ifndef MICRONN_STORAGE_IO_STATS_H_
#define MICRONN_STORAGE_IO_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace micronn {

/// Upper bound on page-cache shards (PageCache::kMaxShards mirrors it);
/// per-shard hit/miss counters are sized to this.
inline constexpr size_t kMaxCacheShards = 64;

// The scalar counters, written once: X(name) per field. IoStats holds
// each as an atomic and IoStats::View as a plain value; the copy,
// difference and snapshot code below is generated from this list.
//
//   read_syscalls: read-path syscall accounting (the cold-cache bench
//     metric). Every blocking read submission counts once — a pread()
//     call on the pread backend, an io_uring_enter() on the uring backend
//     (which covers a whole batch, hence the reduction the batch path
//     buys).
//   write_syscalls: the write-path twin — every pwrite()/pwritev() call,
//     or an io_uring_enter() covering a write batch. The vectored
//     checkpoint backfill is the consumer this metric exists for (pages
//     folded per write syscall).
//   cache_evictions: LRU entries dropped by the page cache to stay inside
//     its budget (aggregate + per shard below). Read-ahead that evicts
//     more than it converts to prefetch_hits is flushing the cache faster
//     than the scans consume it.
//   wal_writes: every frame-carrying WriteAt on the WAL counts once. With
//     commit pipelining one write covers a whole group of commits, so
//     wal_writes/commits is the bench_wal headline the same way
//     read_syscalls is bench_io's.
//   io_retries, corruptions_detected, read_joins: fault-domain counters
//     (docs/DURABILITY.md "Integrity & degraded modes") — transient I/O
//     errors absorbed by the bounded retry loop (RetryingFile), checksum
//     mismatches detected on any read path, and demand reads that joined
//     an in-flight read of the same page (a read-ahead batch or another
//     demand read) instead of issuing a duplicate read.
//   enospc_probes: filesystem space probes issued while in ENOSPC
//     degraded mode (each is one write-past-EOF + truncate pair). The
//     exponential probe backoff exists to keep this flat while the disk
//     stays full; the rate-limit test asserts exactly that.
#define MICRONN_IO_STATS_COUNTERS(X)                          \
  X(pages_read_main)      /* pread from the main file */      \
  X(pages_read_wal)       /* frame reads from the WAL */      \
  X(pages_cache_hit)      /* served from page cache */        \
  X(read_syscalls)                                            \
  X(write_syscalls)                                           \
  X(batch_reads)          /* Pager-level batched reads */     \
  X(pages_prefetched)     /* pages read ahead into cache */   \
  X(prefetch_hits)        /* prefetched pages later used */   \
  X(cache_evictions)                                          \
  X(frames_written)       /* WAL frames appended */           \
  X(wal_writes)                                               \
  X(wal_syncs)            /* fdatasync calls on the WAL */    \
  X(wal_wraps)            /* WAL wrap-around restarts */      \
  X(checkpoint_pages)     /* pages copied at checkpoint */    \
  X(commits)                                                  \
  X(rows_inserted)                                            \
  X(rows_updated)                                             \
  X(rows_deleted)                                             \
  X(io_retries)                                               \
  X(corruptions_detected)                                     \
  X(read_joins)                                               \
  X(enospc_probes)

// The per-shard page-cache counters (only the first
// PageCache::shard_count() slots ever move): the readers-at-scale bench
// uses these to verify shard spread and tune PagerOptions::cache_shards.
#define MICRONN_IO_STATS_SHARD_COUNTERS(X) \
  X(cache_shard_hits)                      \
  X(cache_shard_misses)                    \
  X(cache_shard_evictions)

/// Monotonic counters; snapshot with Snapshot() and subtract to measure an
/// operation. All fields are thread-safe.
class IoStats {
 public:
#define MICRONN_X(name) std::atomic<uint64_t> name{0};
  MICRONN_IO_STATS_COUNTERS(MICRONN_X)
#undef MICRONN_X
#define MICRONN_X(name) \
  std::array<std::atomic<uint64_t>, kMaxCacheShards> name{};
  MICRONN_IO_STATS_SHARD_COUNTERS(MICRONN_X)
#undef MICRONN_X

  /// Plain-value copy of the counters.
  struct View {
#define MICRONN_X(name) uint64_t name = 0;
    MICRONN_IO_STATS_COUNTERS(MICRONN_X)
#undef MICRONN_X
#define MICRONN_X(name) std::array<uint64_t, kMaxCacheShards> name{};
    MICRONN_IO_STATS_SHARD_COUNTERS(MICRONN_X)
#undef MICRONN_X

    /// Total logical row changes (the Fig. 10d metric).
    uint64_t RowChanges() const {
      return rows_inserted + rows_updated + rows_deleted;
    }
    /// Page-cache misses summed over the shards.
    uint64_t CacheMisses() const {
      uint64_t total = 0;
      for (const uint64_t m : cache_shard_misses) total += m;
      return total;
    }
    View operator-(const View& rhs) const {
      View out;
#define MICRONN_X(name) out.name = name - rhs.name;
      MICRONN_IO_STATS_COUNTERS(MICRONN_X)
#undef MICRONN_X
#define MICRONN_X(name)                        \
  for (size_t s = 0; s < kMaxCacheShards; ++s) { \
    out.name[s] = name[s] - rhs.name[s];         \
  }
      MICRONN_IO_STATS_SHARD_COUNTERS(MICRONN_X)
#undef MICRONN_X
      return out;
    }
  };

  View Snapshot() const {
    View v;
#define MICRONN_X(name) v.name = name.load(std::memory_order_relaxed);
    MICRONN_IO_STATS_COUNTERS(MICRONN_X)
#undef MICRONN_X
#define MICRONN_X(name)                                \
  for (size_t s = 0; s < kMaxCacheShards; ++s) {         \
    v.name[s] = name[s].load(std::memory_order_relaxed); \
  }
    MICRONN_IO_STATS_SHARD_COUNTERS(MICRONN_X)
#undef MICRONN_X
    return v;
  }
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_IO_STATS_H_
