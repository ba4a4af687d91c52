// StorageEngine: named tables (B+Trees) + transactions over the pager.
//
// This is the MicroNN analogue of "a SQLite database handle": it owns the
// pager, maintains a catalog (table name -> root page, row count), and
// exposes the paper's concurrency contract — many snapshot readers, one
// serialized writer (§3.2, §3.6). Readers are genuinely concurrent: the
// pager's read path is lock-free, so snapshot scans proceed at full speed
// while a writer appends and fsyncs its commit.
#ifndef MICRONN_STORAGE_ENGINE_H_
#define MICRONN_STORAGE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/io_stats.h"
#include "storage/pager.h"

namespace micronn {

class StorageEngine;

/// Catalog record for one table.
struct TableInfo {
  PageId root = kInvalidPage;
  uint64_t row_count = 0;
};

/// A snapshot-isolated read transaction. Destroying it releases the
/// snapshot. Safe to use from multiple threads concurrently (page reads
/// are thread-safe); table handles are cheap.
class ReadTransaction {
 public:
  ~ReadTransaction();
  ReadTransaction(const ReadTransaction&) = delete;
  ReadTransaction& operator=(const ReadTransaction&) = delete;

  /// Opens an existing table; NotFound if absent at this snapshot.
  Result<BTree> OpenTable(const std::string& name);
  Result<TableInfo> GetTableInfo(const std::string& name);
  /// Names of all tables at this snapshot (catalog scan), sorted.
  Result<std::vector<std::string>> ListTables();

  uint64_t snapshot_seq() const { return seq_; }
  PageView* view() { return &view_; }

 private:
  friend class StorageEngine;
  ReadTransaction(StorageEngine* engine, uint64_t seq, Pager* pager)
      : engine_(engine), seq_(seq), view_(pager, seq) {}

  StorageEngine* engine_;
  uint64_t seq_;
  ReadView view_;
};

/// The (single) write transaction, finished by StorageEngine::Commit or
/// Rollback. A transaction destroyed unfinished rolls back, so an early
/// return can never leak the writer slot. Must not outlive its engine.
/// Not thread-safe.
class WriteTransaction {
 public:
  WriteTransaction(const WriteTransaction&) = delete;
  WriteTransaction& operator=(const WriteTransaction&) = delete;

  Result<BTree> OpenTable(const std::string& name);
  /// Opens, creating the table if it does not exist.
  Result<BTree> OpenOrCreateTable(const std::string& name);
  /// Drops a table, freeing all of its pages.
  Status DropTable(const std::string& name);
  /// Renames a table (a catalog-only operation; used for the atomic index
  /// swap at the end of a full rebuild). Fails if `to` exists.
  Status RenameTable(const std::string& from, const std::string& to);
  Result<TableInfo> GetTableInfo(const std::string& name);

  /// Records a change to a table's logical row count; folded into the
  /// catalog at commit. (Row counts feed the optimizer's |R|, Eq. 1.)
  void AddRowDelta(const std::string& name, int64_t delta) {
    row_deltas_[name] += delta;
  }

  PageView* view() { return &view_; }

 private:
  friend class StorageEngine;
  WriteTransaction(StorageEngine* engine, std::unique_ptr<WriteTxnState> state,
                   Pager* pager)
      : engine_(engine),
        state_(std::move(state)),
        view_(pager, state_.get()) {}

  StorageEngine* engine_;
  std::unique_ptr<WriteTxnState> state_;
  WriteView view_;
  std::map<std::string, int64_t> row_deltas_;
};

/// The storage engine. Thread-safe: reader creation and page access may
/// happen concurrently with one writer.
class StorageEngine {
 public:
  /// Opens (creating if needed) the database at `path`, running WAL crash
  /// recovery and bootstrapping the catalog on first use.
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& path, const PagerOptions& options = {});

  ~StorageEngine();

  /// Checkpoints (best effort) and closes. Idempotent.
  Status Close();

  Result<std::unique_ptr<ReadTransaction>> BeginRead();
  /// Blocks until the writer slot frees up.
  Result<std::unique_ptr<WriteTransaction>> BeginWrite();
  /// Returns Busy instead of blocking.
  Result<std::unique_ptr<WriteTransaction>> TryBeginWrite();

  /// Commits: folds row-count deltas into the catalog, then performs the
  /// WAL commit. Consumes the transaction; on failure it is rolled back.
  Status Commit(std::unique_ptr<WriteTransaction> txn);
  /// Discards the transaction (the same as destroying it).
  void Rollback(std::unique_ptr<WriteTransaction> txn);

  /// Incrementally folds the WAL into the main file. Live readers no
  /// longer block it: frames at-or-below the oldest registered snapshot
  /// are folded and the persistent backfill watermark advances (Ok is
  /// returned even when the fold is partial); only an active writer
  /// yields Busy. See docs/ARCHITECTURE.md for the frame lifecycle and
  /// tests/pager_concurrency_test.cc for the contract.
  Status Checkpoint();
  /// Drops page cache contents (cold-start simulation).
  void DropCaches();

  /// Sequence of the newest committed transaction; each commit advances it
  /// by one. Exposed so concurrency tests (and monitoring) can correlate
  /// reader-observed state with writer progress.
  uint64_t last_committed_seq() const;

  IoStats& io_stats() { return pager_->io_stats(); }
  Pager* pager() { return pager_.get(); }

 private:
  friend class ReadTransaction;
  friend class WriteTransaction;

  explicit StorageEngine(std::unique_ptr<Pager> pager)
      : pager_(std::move(pager)) {}

  Status EnsureCatalog();
  // Catalog access within a view; catalog_root_ is immutable after open.
  Result<TableInfo> LookupTable(PageView* view, const std::string& name);
  Status StoreTable(PageView* view, const std::string& name,
                    const TableInfo& info);

  std::unique_ptr<Pager> pager_;
  PageId catalog_root_ = kInvalidPage;
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_ENGINE_H_
