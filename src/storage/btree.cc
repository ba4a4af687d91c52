#include "storage/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace micronn {

// ---------------------------------------------------------------------------
// Node format
//
// header (16 bytes):
//   [0]     u8  page type (kBTreeLeaf / kBTreeInterior)
//   [1]     u8  flags (unused)
//   [2..3]  u16 ncells
//   [4..5]  u16 content_start (lowest used byte of the cell content area)
//   [6..7]  u16 frag_bytes (dead bytes from removed cells)
//   [8..11] u32 right_child (interior) / unused (leaf)
//   [12..15]    reserved
// cell pointer array: u16 offsets at [16, 16 + 2*ncells), sorted by key
// cell content: grows downward from the page end
//
// leaf cell:      u16 klen | u8 overflow_flag | key |
//                   inline:   u16 vlen | value
//                   overflow: u32 total_len | u32 first_overflow_page
// interior cell:  u16 klen | key | u32 child
//
// overflow page:  u8 type | pad[3] | u32 next | u16 len | data
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kNodeHeader = 16;
constexpr size_t kOffNCells = 2;
constexpr size_t kOffContentStart = 4;
constexpr size_t kOffFrag = 6;
constexpr size_t kOffRightChild = 8;
constexpr size_t kOverflowHeader = 10;
constexpr size_t kOverflowCapacity = kPageSize - kOverflowHeader;
// A split leaves each half with at least one cell, so a leaf must fit two
// of the largest inline cells (pointer + klen + flag + key + vlen + value).
static_assert(kNodeHeader + 2 * (2 + 2 + 1 + kMaxKeySize + 2 +
                                 kMaxInlineValue) <= kPageSize,
              "two maximal inline cells must fit one leaf");

bool IsLeaf(const Page& p) {
  return p.bytes()[0] == static_cast<uint8_t>(PageType::kBTreeLeaf);
}

uint16_t NCells(const Page& p) { return p.ReadU16(kOffNCells); }
uint16_t ContentStart(const Page& p) { return p.ReadU16(kOffContentStart); }
uint16_t FragBytes(const Page& p) { return p.ReadU16(kOffFrag); }
PageId RightChild(const Page& p) { return p.ReadU32(kOffRightChild); }

uint16_t CellOffset(const Page& p, int i) {
  return p.ReadU16(kNodeHeader + 2 * static_cast<size_t>(i));
}

void InitNode(Page* p, PageType type) {
  p->Zero();
  p->bytes()[0] = static_cast<uint8_t>(type);
  p->WriteU16(kOffNCells, 0);
  p->WriteU16(kOffContentStart, kPageSize);
  p->WriteU16(kOffFrag, 0);
  p->WriteU32(kOffRightChild, kInvalidPage);
}

// Parsed view of a leaf cell (points into the page).
struct LeafCell {
  std::string_view key;
  bool overflow = false;
  std::string_view inline_value;  // valid when !overflow
  uint32_t total_len = 0;         // valid when overflow
  PageId overflow_page = kInvalidPage;
  size_t cell_size = 0;
};

LeafCell ParseLeafCell(const Page& p, int i) {
  const uint8_t* base = p.bytes() + CellOffset(p, i);
  LeafCell c;
  uint16_t klen;
  std::memcpy(&klen, base, 2);
  c.overflow = base[2] != 0;
  c.key = std::string_view(reinterpret_cast<const char*>(base + 3), klen);
  const uint8_t* rest = base + 3 + klen;
  if (c.overflow) {
    std::memcpy(&c.total_len, rest, 4);
    std::memcpy(&c.overflow_page, rest + 4, 4);
    c.cell_size = 3 + klen + 8;
  } else {
    uint16_t vlen;
    std::memcpy(&vlen, rest, 2);
    c.inline_value =
        std::string_view(reinterpret_cast<const char*>(rest + 2), vlen);
    c.cell_size = 3 + klen + 2 + vlen;
  }
  return c;
}

struct InteriorCell {
  std::string_view key;
  PageId child = kInvalidPage;
  size_t cell_size = 0;
};

InteriorCell ParseInteriorCell(const Page& p, int i) {
  const uint8_t* base = p.bytes() + CellOffset(p, i);
  InteriorCell c;
  uint16_t klen;
  std::memcpy(&klen, base, 2);
  c.key = std::string_view(reinterpret_cast<const char*>(base + 2), klen);
  std::memcpy(&c.child, base + 2 + klen, 4);
  c.cell_size = 2 + klen + 4;
  return c;
}

// Key of cell i regardless of node type.
std::string_view CellKey(const Page& p, int i) {
  const uint8_t* base = p.bytes() + CellOffset(p, i);
  uint16_t klen;
  std::memcpy(&klen, base, 2);
  const size_t key_off = IsLeaf(p) ? 3 : 2;
  return std::string_view(reinterpret_cast<const char*>(base + key_off), klen);
}

size_t CellSize(const Page& p, int i) {
  return IsLeaf(p) ? ParseLeafCell(p, i).cell_size
                   : ParseInteriorCell(p, i).cell_size;
}

// Raw bytes of cell i (for materialization during splits).
std::string CellBlob(const Page& p, int i) {
  const size_t off = CellOffset(p, i);
  return std::string(reinterpret_cast<const char*>(p.bytes() + off),
                     CellSize(p, i));
}

std::string MakeLeafCellInline(std::string_view key, std::string_view value) {
  std::string c;
  c.reserve(3 + key.size() + 2 + value.size());
  uint16_t klen = static_cast<uint16_t>(key.size());
  c.append(reinterpret_cast<const char*>(&klen), 2);
  c.push_back('\0');  // overflow_flag = 0
  c.append(key);
  uint16_t vlen = static_cast<uint16_t>(value.size());
  c.append(reinterpret_cast<const char*>(&vlen), 2);
  c.append(value);
  return c;
}

std::string MakeLeafCellOverflow(std::string_view key, uint32_t total_len,
                                 PageId first) {
  std::string c;
  c.reserve(3 + key.size() + 8);
  uint16_t klen = static_cast<uint16_t>(key.size());
  c.append(reinterpret_cast<const char*>(&klen), 2);
  c.push_back('\1');  // overflow_flag = 1
  c.append(key);
  c.append(reinterpret_cast<const char*>(&total_len), 4);
  c.append(reinterpret_cast<const char*>(&first), 4);
  return c;
}

std::string MakeInteriorCell(std::string_view key, PageId child) {
  std::string c;
  c.reserve(2 + key.size() + 4);
  uint16_t klen = static_cast<uint16_t>(key.size());
  c.append(reinterpret_cast<const char*>(&klen), 2);
  c.append(key);
  c.append(reinterpret_cast<const char*>(&child), 4);
  return c;
}

// Key embedded in a serialized cell blob of the given node type.
std::string_view BlobKey(const std::string& blob, bool leaf) {
  uint16_t klen;
  std::memcpy(&klen, blob.data(), 2);
  return std::string_view(blob).substr(leaf ? 3 : 2, klen);
}

PageId BlobChild(const std::string& blob) {
  uint16_t klen;
  std::memcpy(&klen, blob.data(), 2);
  PageId child;
  std::memcpy(&child, blob.data() + 2 + klen, 4);
  return child;
}

size_t ContiguousFree(const Page& p) {
  return ContentStart(p) - (kNodeHeader + 2 * static_cast<size_t>(NCells(p)));
}

size_t TotalFree(const Page& p) { return ContiguousFree(p) + FragBytes(p); }

// Rewrites the content area tightly (drops fragmentation).
void CompactNode(Page* p) {
  const int n = NCells(*p);
  std::vector<std::string> blobs;
  blobs.reserve(n);
  for (int i = 0; i < n; ++i) {
    blobs.push_back(CellBlob(*p, i));
  }
  size_t write = kPageSize;
  for (int i = 0; i < n; ++i) {
    write -= blobs[i].size();
    std::memcpy(p->bytes() + write, blobs[i].data(), blobs[i].size());
    p->WriteU16(kNodeHeader + 2 * static_cast<size_t>(i),
                static_cast<uint16_t>(write));
  }
  p->WriteU16(kOffContentStart, static_cast<uint16_t>(write));
  p->WriteU16(kOffFrag, 0);
}

// Inserts `blob` as the cell at position `pos`. Returns false if the node
// has insufficient space even after compaction.
bool TryInsertCell(Page* p, int pos, const std::string& blob) {
  const size_t need = blob.size() + 2;
  if (TotalFree(*p) < need) return false;
  if (ContiguousFree(*p) < need) CompactNode(p);
  const int n = NCells(*p);
  const uint16_t write =
      static_cast<uint16_t>(ContentStart(*p) - blob.size());
  std::memcpy(p->bytes() + write, blob.data(), blob.size());
  // Shift pointer array right of pos.
  uint8_t* arr = p->bytes() + kNodeHeader;
  std::memmove(arr + 2 * (pos + 1), arr + 2 * pos, 2 * (n - pos));
  p->WriteU16(kNodeHeader + 2 * static_cast<size_t>(pos), write);
  p->WriteU16(kOffNCells, static_cast<uint16_t>(n + 1));
  p->WriteU16(kOffContentStart, write);
  return true;
}

void RemoveCell(Page* p, int pos) {
  const int n = NCells(*p);
  const size_t dead = CellSize(*p, pos);
  const uint16_t off = CellOffset(*p, pos);
  uint8_t* arr = p->bytes() + kNodeHeader;
  std::memmove(arr + 2 * pos, arr + 2 * (pos + 1), 2 * (n - pos - 1));
  p->WriteU16(kOffNCells, static_cast<uint16_t>(n - 1));
  if (off == ContentStart(*p)) {
    // The removed cell sat at the content frontier: reclaim directly.
    p->WriteU16(kOffContentStart, static_cast<uint16_t>(off + dead));
  } else {
    p->WriteU16(kOffFrag, static_cast<uint16_t>(FragBytes(*p) + dead));
  }
}

// Overwrites the child pointer of interior cell `pos` in place (cell size
// is unchanged, so no reflow is needed).
void SetInteriorChild(Page* p, int pos, PageId child) {
  const uint8_t* base = p->bytes() + CellOffset(*p, pos);
  uint16_t klen;
  std::memcpy(&klen, base, 2);
  std::memcpy(p->bytes() + CellOffset(*p, pos) + 2 + klen, &child, 4);
}

// Binary search: index of the first cell with key >= target.
int LowerBound(const Page& p, std::string_view target, bool* exact) {
  int lo = 0;
  int hi = NCells(p);
  *exact = false;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    const std::string_view k = CellKey(p, mid);
    const int cmp = k.compare(target);
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      if (cmp == 0) *exact = true;
      hi = mid;
    }
  }
  return lo;
}

// Child page taken for `target` at an interior node, and the child index.
PageId DescendChild(const Page& p, std::string_view target, int* child_idx) {
  bool exact;
  const int i = LowerBound(p, target, &exact);
  *child_idx = i;
  if (i < NCells(p)) {
    return ParseInteriorCell(p, i).child;
  }
  return RightChild(p);
}

// Writes `value` into a fresh overflow chain; returns the first page id.
Result<PageId> WriteOverflowChain(PageView* view, std::string_view value) {
  const size_t n_pages = (value.size() + kOverflowCapacity - 1) /
                         std::max<size_t>(kOverflowCapacity, 1);
  std::vector<PageId> pages(std::max<size_t>(n_pages, 1));
  for (auto& pid : pages) {
    MICRONN_ASSIGN_OR_RETURN(pid, view->Allocate());
  }
  size_t off = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    MICRONN_ASSIGN_OR_RETURN(Page * p, view->Mutable(pages[i]));
    p->Zero();
    p->bytes()[0] = static_cast<uint8_t>(PageType::kOverflow);
    const PageId next = (i + 1 < pages.size()) ? pages[i + 1] : kInvalidPage;
    p->WriteU32(4, next);
    const size_t len = std::min(kOverflowCapacity, value.size() - off);
    p->WriteU16(8, static_cast<uint16_t>(len));
    std::memcpy(p->bytes() + kOverflowHeader, value.data() + off, len);
    off += len;
  }
  return pages[0];
}

Status FreeOverflowChain(PageView* view, PageId first) {
  PageId pid = first;
  while (pid != kInvalidPage) {
    MICRONN_ASSIGN_OR_RETURN(PagePtr p, view->Read(pid));
    const PageId next = p->ReadU32(4);
    MICRONN_RETURN_IF_ERROR(view->Free(pid));
    pid = next;
  }
  return Status::OK();
}

Result<std::string> ReadOverflowChain(PageView* view, PageId first,
                                      uint32_t total_len) {
  std::string out;
  out.reserve(total_len);
  PageId pid = first;
  while (pid != kInvalidPage && out.size() < total_len) {
    MICRONN_ASSIGN_OR_RETURN(PagePtr p, view->Read(pid));
    if (p->bytes()[0] != static_cast<uint8_t>(PageType::kOverflow)) {
      return Status::Corruption("bad overflow page type");
    }
    const uint16_t len = p->ReadU16(8);
    out.append(reinterpret_cast<const char*>(p->bytes() + kOverflowHeader),
               len);
    pid = p->ReadU32(4);
  }
  if (out.size() != total_len) {
    return Status::Corruption("overflow chain shorter than expected");
  }
  return out;
}

// Frees the overflow chain referenced by leaf cell `pos`, if any.
Status FreeCellOverflow(PageView* view, const Page& p, int pos) {
  const LeafCell c = ParseLeafCell(p, pos);
  if (c.overflow) {
    return FreeOverflowChain(view, c.overflow_page);
  }
  return Status::OK();
}

// Byte-balanced split point over materialized cells: the smallest m such
// that cells [0, m) hold at least half the bytes; clamped to keep both
// sides non-empty.
size_t BalancedSplitPoint(const std::vector<std::string>& cells) {
  size_t total = 0;
  for (const auto& c : cells) total += c.size() + 2;
  size_t acc = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    acc += cells[i].size() + 2;
    if (acc * 2 >= total) {
      return std::clamp(i + 1, size_t{1}, cells.size() - 1);
    }
  }
  return cells.size() - 1;
}

void WriteCells(Page* p, const std::vector<std::string>& cells, size_t begin,
                size_t end) {
  size_t write = kPageSize;
  int out = 0;
  for (size_t i = begin; i < end; ++i, ++out) {
    write -= cells[i].size();
    std::memcpy(p->bytes() + write, cells[i].data(), cells[i].size());
    p->WriteU16(kNodeHeader + 2 * static_cast<size_t>(out),
                static_cast<uint16_t>(write));
  }
  p->WriteU16(kOffNCells, static_cast<uint16_t>(end - begin));
  p->WriteU16(kOffContentStart, static_cast<uint16_t>(write));
  p->WriteU16(kOffFrag, 0);
}

}  // namespace

// ---------------------------------------------------------------------------
// BTree
// ---------------------------------------------------------------------------

Result<PageId> BTree::Create(PageView* view) {
  MICRONN_ASSIGN_OR_RETURN(PageId root, view->Allocate());
  MICRONN_ASSIGN_OR_RETURN(Page * p, view->Mutable(root));
  InitNode(p, PageType::kBTreeLeaf);
  return root;
}

Result<PageId> BTree::DescendToLeaf(std::string_view key,
                                    std::vector<PathEntry>* path,
                                    PagePtr* leaf_page) const {
  PageId pid = root_;
  for (;;) {
    MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(pid));
    if (IsLeaf(*p)) {
      if (leaf_page != nullptr) *leaf_page = std::move(p);
      return pid;
    }
    int child_idx;
    const PageId child = DescendChild(*p, key, &child_idx);
    if (child == kInvalidPage) {
      return Status::Corruption("interior node with null child");
    }
    if (path != nullptr) path->push_back({pid, child_idx});
    pid = child;
  }
}

// Height probe: the tree has uniform leaf depth (root splits grow
// downward), so one descent fixes the level at which children are leaves.
// The descent reads a single leaf; the collect recursions read none.
Result<size_t> BTree::LeafLevel(std::string_view probe_key) {
  const int cached = leaf_level_->load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<size_t>(cached);
  std::vector<PathEntry> path;
  MICRONN_RETURN_IF_ERROR(DescendToLeaf(probe_key, &path).status());
  leaf_level_->store(static_cast<int>(path.size()),
                     std::memory_order_relaxed);
  return path.size();
}

Status BTree::CollectLeafPages(std::span<const std::string> sorted_keys,
                               std::vector<PageId>* out) {
  if (sorted_keys.empty()) return Status::OK();
  MICRONN_ASSIGN_OR_RETURN(const size_t leaf_level,
                           LeafLevel(sorted_keys.front()));
  if (leaf_level == 0) {  // the root is the only leaf
    out->push_back(root_);
    return Status::OK();
  }
  return CollectFromNode(root_, 0, leaf_level, sorted_keys, out);
}

Status BTree::CollectFromNode(PageId page, size_t level, size_t leaf_level,
                              std::span<const std::string> keys,
                              std::vector<PageId>* out) {
  MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(page));
  if (IsLeaf(*p)) {  // defensive: never hit when leaf_level is honest
    out->push_back(page);
    return Status::OK();
  }
  // Merge-walk: partition the (sorted) keys among children using the
  // max-key convention — cell i covers keys <= its separator, the right
  // child covers the remainder.
  const int n = NCells(*p);
  size_t start = 0;
  for (int i = 0; i < n && start < keys.size(); ++i) {
    const std::string_view sep = CellKey(*p, i);
    size_t end = start;
    while (end < keys.size() && std::string_view(keys[end]) <= sep) ++end;
    if (end == start) continue;
    const PageId child = ParseInteriorCell(*p, i).child;
    if (child == kInvalidPage) {
      return Status::Corruption("interior node with null child");
    }
    if (level + 1 == leaf_level) {
      out->push_back(child);
    } else {
      MICRONN_RETURN_IF_ERROR(CollectFromNode(
          child, level + 1, leaf_level, keys.subspan(start, end - start),
          out));
    }
    start = end;
  }
  if (start < keys.size()) {
    const PageId child = RightChild(*p);
    if (child != kInvalidPage) {
      if (level + 1 == leaf_level) {
        out->push_back(child);
      } else {
        MICRONN_RETURN_IF_ERROR(CollectFromNode(child, level + 1, leaf_level,
                                                keys.subspan(start), out));
      }
    }
  }
  return Status::OK();
}

Status BTree::CollectLeafPagesInRange(std::string_view lo, std::string_view hi,
                                      size_t max_pages,
                                      std::vector<PageId>* out) {
  if (max_pages == 0 || out->size() >= max_pages) return Status::OK();
  MICRONN_ASSIGN_OR_RETURN(const size_t leaf_level, LeafLevel(lo));
  if (leaf_level == 0) {
    out->push_back(root_);
    return Status::OK();
  }
  return CollectRangeFromNode(root_, 0, leaf_level, lo, hi, max_pages, out);
}

Status BTree::CollectRangeFromNode(PageId page, size_t level,
                                   size_t leaf_level, std::string_view lo,
                                   std::string_view hi, size_t max_pages,
                                   std::vector<PageId>* out) {
  if (out->size() >= max_pages) return Status::OK();
  MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(page));
  if (IsLeaf(*p)) {
    out->push_back(page);
    return Status::OK();
  }
  const int n = NCells(*p);
  // Child i covers (sep[i-1], sep[i]]; once a separator reaches `hi` the
  // child containing it still intersects the range, everything after is
  // past it.
  bool past_hi = false;
  for (int i = 0; i < n; ++i) {
    if (out->size() >= max_pages) return Status::OK();
    if (past_hi) break;
    const std::string_view sep = CellKey(*p, i);
    if (sep < lo) continue;  // child holds only keys <= sep < lo
    if (!hi.empty() && sep >= hi) past_hi = true;
    const PageId child = ParseInteriorCell(*p, i).child;
    if (child == kInvalidPage) {
      return Status::Corruption("interior node with null child");
    }
    if (level + 1 == leaf_level) {
      out->push_back(child);
    } else {
      MICRONN_RETURN_IF_ERROR(CollectRangeFromNode(
          child, level + 1, leaf_level, lo, hi, max_pages, out));
    }
  }
  if (!past_hi && out->size() < max_pages) {
    const PageId child = RightChild(*p);
    if (child != kInvalidPage) {
      if (level + 1 == leaf_level) {
        out->push_back(child);
      } else {
        MICRONN_RETURN_IF_ERROR(CollectRangeFromNode(
            child, level + 1, leaf_level, lo, hi, max_pages, out));
      }
    }
  }
  return Status::OK();
}

Status BTree::Put(std::string_view key, std::string_view value) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key size must be in [1, " +
                                   std::to_string(kMaxKeySize) + "]");
  }
  if (!view_->writable()) {
    return Status::NotSupported("Put on read-only transaction");
  }
  std::vector<PathEntry> path;
  MICRONN_ASSIGN_OR_RETURN(PageId leaf, DescendToLeaf(key, &path));
  MICRONN_ASSIGN_OR_RETURN(Page * lp, view_->Mutable(leaf));
  bool exact;
  int pos = LowerBound(*lp, key, &exact);
  if (exact) {
    MICRONN_RETURN_IF_ERROR(FreeCellOverflow(view_, *lp, pos));
    RemoveCell(lp, pos);
  }
  std::string cell;
  if (value.size() > kMaxInlineValue) {
    MICRONN_ASSIGN_OR_RETURN(PageId first, WriteOverflowChain(view_, value));
    cell = MakeLeafCellOverflow(key, static_cast<uint32_t>(value.size()),
                                first);
  } else {
    cell = MakeLeafCellInline(key, value);
  }
  if (TryInsertCell(lp, pos, cell)) {
    return Status::OK();
  }
  return InsertWithSplit(path, path.size(), leaf, pos, std::move(cell));
}

Status BTree::InsertWithSplit(const std::vector<PathEntry>& path,
                              size_t level, PageId page, int pos,
                              std::string cell) {
  MICRONN_ASSIGN_OR_RETURN(Page * p, view_->Mutable(page));
  const bool leaf = IsLeaf(*p);
  const int n = NCells(*p);
  std::vector<std::string> cells;
  cells.reserve(n + 1);
  for (int i = 0; i < n; ++i) {
    cells.push_back(CellBlob(*p, i));
  }
  cells.insert(cells.begin() + pos, std::move(cell));
  const PageId old_right = RightChild(*p);

  // Split point. Appending at the tail uses a lopsided split so bulk loads
  // in key order fill pages near 100% (the clustered-rewrite path).
  const bool appended_last = (pos == static_cast<int>(cells.size()) - 1);
  size_t m;
  std::string sep;
  if (leaf) {
    m = appended_last ? cells.size() - 1 : BalancedSplitPoint(cells);
    sep = std::string(BlobKey(cells[m - 1], /*leaf=*/true));
  } else {
    // Interior: cells[sc] is promoted; L keeps [0, sc) with right child =
    // child(cells[sc]); R keeps (sc, end) with the old right child.
    size_t sc = appended_last ? cells.size() - 2 : BalancedSplitPoint(cells);
    sc = std::clamp(sc, size_t{0}, cells.size() - 2);
    m = sc;
    sep = std::string(BlobKey(cells[m], /*leaf=*/false));
  }

  if (page == root_) {
    // Root split: move contents into two fresh children; the root page id
    // stays fixed.
    MICRONN_ASSIGN_OR_RETURN(PageId left, view_->Allocate());
    MICRONN_ASSIGN_OR_RETURN(PageId right, view_->Allocate());
    MICRONN_ASSIGN_OR_RETURN(Page * lp, view_->Mutable(left));
    MICRONN_ASSIGN_OR_RETURN(Page * rp, view_->Mutable(right));
    const PageType child_type =
        leaf ? PageType::kBTreeLeaf : PageType::kBTreeInterior;
    InitNode(lp, child_type);
    InitNode(rp, child_type);
    if (leaf) {
      WriteCells(lp, cells, 0, m);
      WriteCells(rp, cells, m, cells.size());
    } else {
      WriteCells(lp, cells, 0, m);
      lp->WriteU32(kOffRightChild, BlobChild(cells[m]));
      WriteCells(rp, cells, m + 1, cells.size());
      rp->WriteU32(kOffRightChild, old_right);
    }
    MICRONN_ASSIGN_OR_RETURN(Page * rootp, view_->Mutable(root_));
    InitNode(rootp, PageType::kBTreeInterior);
    const std::string root_cell = MakeInteriorCell(sep, left);
    TryInsertCell(rootp, 0, root_cell);  // cannot fail on an empty node
    rootp->WriteU32(kOffRightChild, right);
    leaf_level_->store(-1, std::memory_order_relaxed);  // tree grew
    return Status::OK();
  }

  // Non-root: `page` keeps the lower half, a new sibling takes the upper.
  MICRONN_ASSIGN_OR_RETURN(PageId sibling, view_->Allocate());
  MICRONN_ASSIGN_OR_RETURN(Page * sp, view_->Mutable(sibling));
  InitNode(sp, leaf ? PageType::kBTreeLeaf : PageType::kBTreeInterior);
  // Re-fetch p: Allocate/Mutable may have created it via the same dirty
  // map, but the pointer is stable; still, keep the sequence explicit.
  MICRONN_ASSIGN_OR_RETURN(p, view_->Mutable(page));
  if (leaf) {
    WriteCells(sp, cells, m, cells.size());
    InitNode(p, PageType::kBTreeLeaf);
    WriteCells(p, cells, 0, m);
  } else {
    WriteCells(sp, cells, m + 1, cells.size());
    sp->WriteU32(kOffRightChild, old_right);
    InitNode(p, PageType::kBTreeInterior);
    WriteCells(p, cells, 0, m);
    p->WriteU32(kOffRightChild, BlobChild(cells[m]));
  }

  // Fix the parent: the existing reference (which pointed at `page` and
  // whose key bounds the *upper* half) now points at the sibling, and a
  // new cell (sep -> page) is inserted at the same index.
  const PathEntry& parent = path[level - 1];
  MICRONN_ASSIGN_OR_RETURN(Page * pp, view_->Mutable(parent.page));
  if (parent.child_idx < NCells(*pp)) {
    SetInteriorChild(pp, parent.child_idx, sibling);
  } else {
    pp->WriteU32(kOffRightChild, sibling);
  }
  std::string parent_cell = MakeInteriorCell(sep, page);
  if (TryInsertCell(pp, parent.child_idx, parent_cell)) {
    return Status::OK();
  }
  return InsertWithSplit(path, level - 1, parent.page, parent.child_idx,
                         std::move(parent_cell));
}

Result<bool> BTree::Delete(std::string_view key) {
  if (!view_->writable()) {
    return Status::NotSupported("Delete on read-only transaction");
  }
  std::vector<PathEntry> path;
  MICRONN_ASSIGN_OR_RETURN(PageId leaf, DescendToLeaf(key, &path));
  MICRONN_ASSIGN_OR_RETURN(Page * lp, view_->Mutable(leaf));
  bool exact;
  const int pos = LowerBound(*lp, key, &exact);
  if (!exact) return false;
  MICRONN_RETURN_IF_ERROR(FreeCellOverflow(view_, *lp, pos));
  RemoveCell(lp, pos);
  if (NCells(*lp) == 0 && leaf != root_) {
    MICRONN_RETURN_IF_ERROR(view_->Free(leaf));
    MICRONN_RETURN_IF_ERROR(RemoveChildRef(path, path.size() - 1));
  }
  return true;
}

Status BTree::RemoveChildRef(const std::vector<PathEntry>& path,
                             size_t level) {
  const PathEntry& entry = path[level];
  MICRONN_ASSIGN_OR_RETURN(Page * p, view_->Mutable(entry.page));
  const int n = NCells(*p);
  if (entry.child_idx < n) {
    RemoveCell(p, entry.child_idx);
  } else {
    // The right child vanished: promote the last cell's child into the
    // right-child slot.
    if (n == 0) {
      // Node holds nothing at all now.
      if (entry.page == root_) {
        InitNode(p, PageType::kBTreeLeaf);
        leaf_level_->store(-1, std::memory_order_relaxed);  // tree shrank
        return Status::OK();
      }
      MICRONN_RETURN_IF_ERROR(view_->Free(entry.page));
      return RemoveChildRef(path, level - 1);
    }
    const InteriorCell last = ParseInteriorCell(*p, n - 1);
    p->WriteU32(kOffRightChild, last.child);
    RemoveCell(p, n - 1);
  }
  // Collapse a root that degenerated to a single right child, keeping the
  // fixed root page id.
  if (entry.page == root_ && NCells(*p) == 0) {
    const PageId only = RightChild(*p);
    if (only != kInvalidPage) {
      MICRONN_ASSIGN_OR_RETURN(PagePtr child, view_->Read(only));
      std::memcpy(p->bytes(), child->bytes(), kPageSize);
      MICRONN_RETURN_IF_ERROR(view_->Free(only));
    }
  }
  return Status::OK();
}

Result<std::optional<std::string>> BTree::Get(std::string_view key) {
  PagePtr p;
  MICRONN_RETURN_IF_ERROR(DescendToLeaf(key, nullptr, &p).status());
  bool exact;
  const int pos = LowerBound(*p, key, &exact);
  if (!exact) return std::optional<std::string>();
  const LeafCell c = ParseLeafCell(*p, pos);
  if (c.overflow) {
    MICRONN_ASSIGN_OR_RETURN(
        std::string v, ReadOverflowChain(view_, c.overflow_page, c.total_len));
    return std::optional<std::string>(std::move(v));
  }
  return std::optional<std::string>(std::string(c.inline_value));
}

BTreeCursor BTree::NewCursor() { return BTreeCursor(view_, root_); }

Status BTree::FreeSubtree(PageId page) {
  MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(page));
  if (IsLeaf(*p)) {
    for (int i = 0; i < NCells(*p); ++i) {
      MICRONN_RETURN_IF_ERROR(FreeCellOverflow(view_, *p, i));
    }
  } else {
    for (int i = 0; i < NCells(*p); ++i) {
      MICRONN_RETURN_IF_ERROR(FreeSubtree(ParseInteriorCell(*p, i).child));
    }
    if (RightChild(*p) != kInvalidPage) {
      MICRONN_RETURN_IF_ERROR(FreeSubtree(RightChild(*p)));
    }
  }
  return view_->Free(page);
}

Status BTree::Clear() {
  if (!view_->writable()) {
    return Status::NotSupported("Clear on read-only transaction");
  }
  MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(root_));
  if (!IsLeaf(*p)) {
    for (int i = 0; i < NCells(*p); ++i) {
      MICRONN_RETURN_IF_ERROR(FreeSubtree(ParseInteriorCell(*p, i).child));
    }
    if (RightChild(*p) != kInvalidPage) {
      MICRONN_RETURN_IF_ERROR(FreeSubtree(RightChild(*p)));
    }
  } else {
    for (int i = 0; i < NCells(*p); ++i) {
      MICRONN_RETURN_IF_ERROR(FreeCellOverflow(view_, *p, i));
    }
  }
  MICRONN_ASSIGN_OR_RETURN(Page * mp, view_->Mutable(root_));
  InitNode(mp, PageType::kBTreeLeaf);
  leaf_level_->store(-1, std::memory_order_relaxed);  // tree shrank
  return Status::OK();
}

Status BTree::CheckNode(PageId page, std::string_view upper_bound,
                        bool has_bound, std::string* max_key_out) {
  MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(page));
  const int n = NCells(*p);
  std::string prev;
  for (int i = 0; i < n; ++i) {
    const std::string_view k = CellKey(*p, i);
    if (i > 0 && !(prev < k)) {
      return Status::Corruption("cells out of order on page " +
                                std::to_string(page));
    }
    if (has_bound && k > upper_bound) {
      return Status::Corruption("cell key above separator on page " +
                                std::to_string(page));
    }
    prev = std::string(k);
  }
  if (IsLeaf(*p)) {
    *max_key_out = prev;
    return Status::OK();
  }
  std::string child_max;
  for (int i = 0; i < n; ++i) {
    const InteriorCell c = ParseInteriorCell(*p, i);
    MICRONN_RETURN_IF_ERROR(
        CheckNode(c.child, c.key, /*has_bound=*/true, &child_max));
  }
  if (RightChild(*p) == kInvalidPage) {
    return Status::Corruption("interior node missing right child, page " +
                              std::to_string(page));
  }
  MICRONN_RETURN_IF_ERROR(
      CheckNode(RightChild(*p), upper_bound, has_bound, &child_max));
  *max_key_out = child_max.empty() ? prev : child_max;
  return Status::OK();
}

Status BTree::CheckIntegrity() {
  std::string max_key;
  return CheckNode(root_, {}, /*has_bound=*/false, &max_key);
}

// ---------------------------------------------------------------------------
// BTreeCursor
// ---------------------------------------------------------------------------

Status BTreeCursor::SeekToFirst() {
  stack_.clear();
  valid_ = false;
  MICRONN_RETURN_IF_ERROR(DescendLeftmost(root_));
  if (valid_) MICRONN_RETURN_IF_ERROR(LoadCurrentCell());
  return Status::OK();
}

Status BTreeCursor::DescendLeftmost(PageId page) {
  PageId pid = page;
  for (;;) {
    MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(pid));
    if (IsLeaf(*p)) {
      leaf_ = pid;
      leaf_page_ = p;
      leaf_idx_ = 0;
      if (NCells(*p) == 0) {
        return AdvanceUpward();
      }
      valid_ = true;
      return Status::OK();
    }
    stack_.push_back({pid, 0});
    pid = (NCells(*p) > 0) ? ParseInteriorCell(*p, 0).child : RightChild(*p);
    if (NCells(*p) == 0) stack_.back().child_idx = 0;  // right == child 0
    if (pid == kInvalidPage) {
      return Status::Corruption("null child during leftmost descent");
    }
  }
}

Status BTreeCursor::AdvanceUpward() {
  while (!stack_.empty()) {
    BTree::PathEntry& top = stack_.back();
    MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(top.page));
    const int n = NCells(*p);
    if (top.child_idx < n) {
      ++top.child_idx;
      const PageId next = (top.child_idx < n)
                              ? ParseInteriorCell(*p, top.child_idx).child
                              : RightChild(*p);
      return DescendLeftmost(next);
    }
    stack_.pop_back();
  }
  valid_ = false;
  leaf_page_.reset();
  return Status::OK();
}

Status BTreeCursor::Seek(std::string_view target) {
  stack_.clear();
  valid_ = false;
  PageId pid = root_;
  for (;;) {
    MICRONN_ASSIGN_OR_RETURN(PagePtr p, view_->Read(pid));
    if (IsLeaf(*p)) {
      leaf_ = pid;
      leaf_page_ = p;
      bool exact;
      leaf_idx_ = LowerBound(*p, target, &exact);
      if (leaf_idx_ >= NCells(*p)) {
        MICRONN_RETURN_IF_ERROR(AdvanceUpward());
      } else {
        valid_ = true;
      }
      if (valid_) MICRONN_RETURN_IF_ERROR(LoadCurrentCell());
      return Status::OK();
    }
    int child_idx;
    const PageId child = DescendChild(*p, target, &child_idx);
    stack_.push_back({pid, child_idx});
    if (child == kInvalidPage) {
      return Status::Corruption("null child during seek");
    }
    pid = child;
  }
}

Status BTreeCursor::SeekForward(std::string_view target) {
  if (leaf_page_ != nullptr) {
    const Page& p = *leaf_page_;
    const int n = NCells(p);
    if (n > 0 && CellKey(p, 0) <= target && target <= CellKey(p, n - 1)) {
      bool exact;
      leaf_idx_ = LowerBound(p, target, &exact);
      valid_ = true;
      return LoadCurrentCell();
    }
  }
  return Seek(target);
}

Status BTreeCursor::Next() {
  if (!valid_) return Status::InvalidArgument("Next on invalid cursor");
  ++leaf_idx_;
  if (leaf_idx_ >= NCells(*leaf_page_)) {
    MICRONN_RETURN_IF_ERROR(AdvanceUpward());
  }
  if (valid_) MICRONN_RETURN_IF_ERROR(LoadCurrentCell());
  return Status::OK();
}

Status BTreeCursor::LoadCurrentCell() {
  const LeafCell c = ParseLeafCell(*leaf_page_, leaf_idx_);
  key_.assign(c.key.data(), c.key.size());
  return Status::OK();
}

Result<std::string> BTreeCursor::value() const {
  const LeafCell c = ParseLeafCell(*leaf_page_, leaf_idx_);
  if (c.overflow) {
    return ReadOverflowChain(view_, c.overflow_page, c.total_len);
  }
  return std::string(c.inline_value);
}

Result<std::string_view> BTreeCursor::ValueView(std::string* storage) const {
  const LeafCell c = ParseLeafCell(*leaf_page_, leaf_idx_);
  if (c.overflow) {
    MICRONN_ASSIGN_OR_RETURN(
        *storage, ReadOverflowChain(view_, c.overflow_page, c.total_len));
    return std::string_view(*storage);
  }
  return c.inline_value;
}

}  // namespace micronn
