#include "storage/engine.h"

#include "common/bytes.h"
#include "storage/key_encoding.h"

namespace micronn {

namespace {

std::string EncodeTableInfo(const TableInfo& info) {
  std::string v;
  PutFixed32(&v, info.root);
  PutFixed64(&v, info.row_count);
  return v;
}

Result<TableInfo> DecodeTableInfo(std::string_view v) {
  if (v.size() != 12) {
    return Status::Corruption("bad catalog entry size");
  }
  TableInfo info;
  info.root = DecodeFixed32(v.data());
  info.row_count = DecodeFixed64(v.data() + 4);
  return info;
}

}  // namespace

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& path, const PagerOptions& options) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                           Pager::Open(path, options));
  std::unique_ptr<StorageEngine> engine(new StorageEngine(std::move(pager)));
  MICRONN_RETURN_IF_ERROR(engine->EnsureCatalog());
  return engine;
}

StorageEngine::~StorageEngine() {
  if (pager_ != nullptr) {
    Close().ok();  // best effort
  }
}

Status StorageEngine::Close() {
  if (pager_ == nullptr) return Status::OK();
  Status st = pager_->Close();
  pager_.reset();
  return st;
}

Status StorageEngine::EnsureCatalog() {
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> snapshot,
                             BeginRead());
    MICRONN_ASSIGN_OR_RETURN(PagePtr header, snapshot->view()->Read(0));
    catalog_root_ = header->ReadU32(DbHeader::kOffCatalogRoot);
  }
  if (catalog_root_ != kInvalidPage) return Status::OK();
  // First open: create the catalog tree.
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           BeginWrite());
  MICRONN_ASSIGN_OR_RETURN(PageId root, BTree::Create(txn->view()));
  MICRONN_ASSIGN_OR_RETURN(Page* header, txn->view()->Mutable(0));
  header->WriteU32(DbHeader::kOffCatalogRoot, root);
  MICRONN_RETURN_IF_ERROR(Commit(std::move(txn)));
  catalog_root_ = root;
  return Status::OK();
}

Result<TableInfo> StorageEngine::LookupTable(PageView* view,
                                             const std::string& name) {
  BTree catalog(view, catalog_root_);
  MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> v,
                           catalog.Get(key::Str(name)));
  if (!v.has_value()) {
    return Status::NotFound("table not found: " + name);
  }
  return DecodeTableInfo(*v);
}

Status StorageEngine::StoreTable(PageView* view, const std::string& name,
                                 const TableInfo& info) {
  BTree catalog(view, catalog_root_);
  return catalog.Put(key::Str(name), EncodeTableInfo(info));
}

Result<std::unique_ptr<ReadTransaction>> StorageEngine::BeginRead() {
  const uint64_t seq = pager_->BeginSnapshot();
  return std::unique_ptr<ReadTransaction>(
      new ReadTransaction(this, seq, pager_.get()));
}

Result<std::unique_ptr<WriteTransaction>> StorageEngine::BeginWrite() {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTxnState> state,
                           pager_->BeginWrite());
  return std::unique_ptr<WriteTransaction>(
      new WriteTransaction(this, std::move(state), pager_.get()));
}

Result<std::unique_ptr<WriteTransaction>> StorageEngine::TryBeginWrite() {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTxnState> state,
                           pager_->TryBeginWrite());
  return std::unique_ptr<WriteTransaction>(
      new WriteTransaction(this, std::move(state), pager_.get()));
}

Status StorageEngine::Commit(std::unique_ptr<WriteTransaction> txn) {
  // Fold accumulated row-count deltas into catalog entries.
  for (const auto& [name, delta] : txn->row_deltas_) {
    if (delta == 0) continue;
    Result<TableInfo> info = LookupTable(&txn->view_, name);
    if (!info.ok()) {
      if (info.status().IsNotFound()) continue;  // dropped within the txn
      return info.status();
    }
    TableInfo updated = info.value();
    const int64_t count = static_cast<int64_t>(updated.row_count) + delta;
    updated.row_count = count > 0 ? static_cast<uint64_t>(count) : 0;
    MICRONN_RETURN_IF_ERROR(StoreTable(&txn->view_, name, updated));
  }
  return pager_->CommitWrite(std::move(txn->state_));
}

void StorageEngine::Rollback(std::unique_ptr<WriteTransaction> txn) {
  txn.reset();  // ~WriteTransaction rolls back
}

Status StorageEngine::Checkpoint() { return pager_->Checkpoint(); }

void StorageEngine::DropCaches() { pager_->DropCaches(); }

uint64_t StorageEngine::last_committed_seq() const {
  return pager_->last_committed_seq();
}

// --- ReadTransaction ---

ReadTransaction::~ReadTransaction() {
  // Tolerate engines closed with live readers (a host-application bug, but
  // one that should not crash the process).
  if (engine_->pager_ != nullptr) {
    engine_->pager_->EndSnapshot(seq_);
  }
}

Result<BTree> ReadTransaction::OpenTable(const std::string& name) {
  MICRONN_ASSIGN_OR_RETURN(TableInfo info,
                           engine_->LookupTable(&view_, name));
  return BTree(&view_, info.root);
}

Result<TableInfo> ReadTransaction::GetTableInfo(const std::string& name) {
  return engine_->LookupTable(&view_, name);
}

Result<std::vector<std::string>> ReadTransaction::ListTables() {
  std::vector<std::string> names;
  BTree catalog(&view_, engine_->catalog_root_);
  BTreeCursor c = catalog.NewCursor();
  MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
  while (c.Valid()) {
    std::string_view k = c.key();
    std::string name;
    if (!key::ConsumeString(&k, &name)) {
      return Status::Corruption("bad catalog key");
    }
    names.push_back(std::move(name));
    MICRONN_RETURN_IF_ERROR(c.Next());
  }
  return names;
}

// --- WriteTransaction ---

Result<BTree> WriteTransaction::OpenTable(const std::string& name) {
  MICRONN_ASSIGN_OR_RETURN(TableInfo info,
                           engine_->LookupTable(&view_, name));
  return BTree(&view_, info.root);
}

Result<BTree> WriteTransaction::OpenOrCreateTable(const std::string& name) {
  Result<TableInfo> info = engine_->LookupTable(&view_, name);
  if (info.ok()) {
    return BTree(&view_, info->root);
  }
  if (!info.status().IsNotFound()) {
    return info.status();
  }
  MICRONN_ASSIGN_OR_RETURN(PageId root, BTree::Create(&view_));
  TableInfo created;
  created.root = root;
  created.row_count = 0;
  MICRONN_RETURN_IF_ERROR(engine_->StoreTable(&view_, name, created));
  return BTree(&view_, root);
}

Status WriteTransaction::DropTable(const std::string& name) {
  MICRONN_ASSIGN_OR_RETURN(TableInfo info,
                           engine_->LookupTable(&view_, name));
  BTree tree(&view_, info.root);
  MICRONN_RETURN_IF_ERROR(tree.Clear());
  MICRONN_RETURN_IF_ERROR(view_.Free(info.root));
  BTree catalog(&view_, engine_->catalog_root_);
  MICRONN_ASSIGN_OR_RETURN(bool erased, catalog.Delete(key::Str(name)));
  (void)erased;
  row_deltas_.erase(name);
  return Status::OK();
}

Status WriteTransaction::RenameTable(const std::string& from,
                                     const std::string& to) {
  Result<TableInfo> existing = engine_->LookupTable(&view_, to);
  if (existing.ok()) {
    return Status::AlreadyExists("table exists: " + to);
  }
  if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  MICRONN_ASSIGN_OR_RETURN(TableInfo info, engine_->LookupTable(&view_, from));
  BTree catalog(&view_, engine_->catalog_root_);
  MICRONN_ASSIGN_OR_RETURN(bool erased, catalog.Delete(key::Str(from)));
  (void)erased;
  MICRONN_RETURN_IF_ERROR(engine_->StoreTable(&view_, to, info));
  auto it = row_deltas_.find(from);
  if (it != row_deltas_.end()) {
    row_deltas_[to] += it->second;
    row_deltas_.erase(it);
  }
  return Status::OK();
}

Result<TableInfo> WriteTransaction::GetTableInfo(const std::string& name) {
  MICRONN_ASSIGN_OR_RETURN(TableInfo info,
                           engine_->LookupTable(&view_, name));
  // Reflect uncommitted row deltas so readers-of-own-writes see consistent
  // counts.
  auto it = row_deltas_.find(name);
  if (it != row_deltas_.end()) {
    const int64_t count = static_cast<int64_t>(info.row_count) + it->second;
    info.row_count = count > 0 ? static_cast<uint64_t>(count) : 0;
  }
  return info;
}

}  // namespace micronn
