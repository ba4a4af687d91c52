// Disk-resident B+Tree.
//
// The storage engine's only ordered container: tables and secondary
// indexes are B+Trees over memcmp-ordered keys (see key_encoding.h).
// Design notes:
//   - The root page id is immutable for the lifetime of the tree (root
//     splits grow *downward* by moving the root's content into two fresh
//     children), so catalog entries never need updating.
//   - Interior cells use the max-key convention: cell (K, C) covers keys
//     <= K; the per-node right_child covers keys greater than every cell
//     key. Separators may become stale upper bounds after deletions, which
//     is harmless.
//   - Values larger than kMaxInlineValue spill to an overflow page chain
//     (vector rows of about 256 floats and more take this path).
//   - Deletion frees empty nodes but tolerates under-full ones; the index
//     rebuild path rewrites tables wholesale, which re-compacts them.
//
// A BTree instance is bound to one transaction's PageView and is not
// thread-safe. Concurrency comes from the pager: many read snapshots, one
// writer.
#ifndef MICRONN_STORAGE_BTREE_H_
#define MICRONN_STORAGE_BTREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace micronn {

/// Maximum key length accepted by Put (keeps interior fanout sane).
inline constexpr size_t kMaxKeySize = 512;
/// Values longer than this are stored in an overflow chain. 1 KiB plus
/// one float, so a dim-128 SQ8 params row (2*128 floats and its
/// max_error), read for every probed partition of a quantized query,
/// stays inline instead of costing an overflow page. A leaf still holds
/// two cells of the largest key and inline value.
inline constexpr size_t kMaxInlineValue = 1028;

class BTreeCursor;

/// A B+Tree rooted at a fixed page. Cheap to construct (a handle).
class BTree {
 public:
  /// Allocates and initializes an empty tree; returns its root page.
  static Result<PageId> Create(PageView* view);

  BTree(PageView* view, PageId root)
      : view_(view),
        root_(root),
        leaf_level_(std::make_shared<std::atomic<int>>(-1)) {}

  /// Inserts or replaces `key` -> `value`.
  Status Put(std::string_view key, std::string_view value);

  /// Removes `key`. Returns true if it was present.
  Result<bool> Delete(std::string_view key);

  /// Point lookup.
  Result<std::optional<std::string>> Get(std::string_view key);

  /// Creates a cursor positioned before the first entry; call Seek* next.
  BTreeCursor NewCursor();

  /// Frees every page of the tree except the root, which is reset to an
  /// empty leaf.
  Status Clear();

  /// Appends to `*out` the ids of every leaf page that owns one of
  /// `sorted_keys` (ascending memcmp order, duplicates allowed) WITHOUT
  /// reading those leaves — only interior levels are walked (plus a single
  /// leaf for the height probe). Feed the result to Pager::PrefetchPages so
  /// a following run of Get() calls finds its leaves resident.
  Status CollectLeafPages(std::span<const std::string> sorted_keys,
                          std::vector<PageId>* out);

  /// Same, for every leaf that may hold a key in [lo, hi); empty `hi`
  /// means unbounded above. Stops early once `*out` holds `max_pages`
  /// entries (prefetch is best-effort, so a truncated set is fine).
  Status CollectLeafPagesInRange(std::string_view lo, std::string_view hi,
                                 size_t max_pages, std::vector<PageId>* out);

  /// Walks the whole tree verifying structural invariants (ordering,
  /// separator bounds, reachability). Test / debugging aid.
  Status CheckIntegrity();

  PageId root() const { return root_; }

 private:
  friend class BTreeCursor;

  struct PathEntry {
    PageId page;
    int child_idx;  // which child was taken: 0..ncells (ncells = right)
  };

  // Descends to the leaf that owns `key`; fills `path` with interior steps
  // and, when `leaf_page` is non-null, hands back the leaf it read so the
  // caller need not read it again.
  Result<PageId> DescendToLeaf(std::string_view key,
                               std::vector<PathEntry>* path,
                               PagePtr* leaf_page = nullptr) const;

  // Inserts `cell` at `pos` in node `page` (leaf or interior cell blob),
  // splitting up the `path` as needed.
  Status InsertWithSplit(const std::vector<PathEntry>& path, size_t level,
                         PageId page, int pos, std::string cell);

  // Removes the reference to empty child at path[level]'s child_idx,
  // recursing upward if the parent empties too.
  Status RemoveChildRef(const std::vector<PathEntry>& path, size_t level);

  Status FreeSubtree(PageId page);

  // Recursive workers for the leaf collectors. `leaf_level` is the uniform
  // leaf depth (path length from root); children of a node at
  // `leaf_level - 1` are emitted without being read.
  Status CollectFromNode(PageId page, size_t level, size_t leaf_level,
                         std::span<const std::string> keys,
                         std::vector<PageId>* out);
  Status CollectRangeFromNode(PageId page, size_t level, size_t leaf_level,
                              std::string_view lo, std::string_view hi,
                              size_t max_pages, std::vector<PageId>* out);

  Status CheckNode(PageId page, std::string_view upper_bound, bool has_bound,
                   std::string* max_key_out);

  // Uniform leaf depth (0 = the root is the only leaf), probing with a
  // descent to the leaf owning `probe_key` on the first call. The collect
  // paths run once per partition/chunk, and on a cold cache each probe is
  // a demand page read — caching turns ~n probes into one.
  Result<size_t> LeafLevel(std::string_view probe_key);

  PageView* view_;
  PageId root_;
  // Shared across copies of this handle (collectors take BTree by value);
  // reset whenever an operation through this handle family changes the
  // tree height (root split, root collapse, Clear). Handles opened by
  // other transactions have their own cache, consistent with their own
  // snapshot. -1 = unknown.
  std::shared_ptr<std::atomic<int>> leaf_level_;
};

/// Forward iterator over a BTree. Holds page references; valid as long as
/// the underlying transaction is open and (for write transactions) the
/// tree is not mutated while iterating.
class BTreeCursor {
 public:
  /// Positions at the smallest key. After this, Valid() reflects whether
  /// the tree is non-empty.
  Status SeekToFirst();

  /// Positions at the first key >= `target`.
  Status Seek(std::string_view target);

  /// Same result as Seek(target), for walks over ascending targets: when
  /// `target` lies within the key range of the pinned leaf, only that leaf
  /// is binary-searched (no page reads); otherwise a full Seek runs. A
  /// sorted key run that shares leaves thus reads each leaf once.
  Status SeekForward(std::string_view target);

  bool Valid() const { return valid_; }

  /// Advances to the next key. Requires Valid().
  Status Next();

  /// Current key. Requires Valid(). The view is stable until the cursor
  /// moves.
  std::string_view key() const { return key_; }

  /// Current value (inline or overflow). Requires Valid().
  Result<std::string> value() const;

  /// Borrowed view of the current value. An inline value is returned as a
  /// view into the pinned leaf page — no copy — valid until the cursor
  /// moves; an overflow value is materialized into `*storage` and the view
  /// points there. The hot scan loops (src/ivf/scan.cc) use this to avoid
  /// one heap-allocated std::string per row.
  Result<std::string_view> ValueView(std::string* storage) const;

 private:
  friend class BTree;
  BTreeCursor(PageView* view, PageId root) : view_(view), root_(root) {}

  // Descends from `page` to the leftmost leaf, pushing interior steps.
  Status DescendLeftmost(PageId page);
  // Pops exhausted levels and descends into the next sibling subtree.
  Status AdvanceUpward();
  // Loads key_ (and value metadata) from the current leaf cell.
  Status LoadCurrentCell();

  PageView* view_;
  PageId root_;
  std::vector<BTree::PathEntry> stack_;  // interior levels
  PageId leaf_ = kInvalidPage;
  PagePtr leaf_page_;
  int leaf_idx_ = 0;
  bool valid_ = false;
  std::string key_;
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_BTREE_H_
