// Bounded top-k structures (paper §3.3: per-thread result heaps and an
// "efficient parallel heap merge").
#ifndef MICRONN_NUMERICS_TOPK_H_
#define MICRONN_NUMERICS_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace micronn {

/// One search hit: internal vector id plus its distance to the query, and
/// the partition the row was scored in. The partition is the row's
/// location in the clustered vectors table (VectorKey(partition, id)), so
/// rerank and result resolution read the row directly instead of looking
/// it up in vidmap. It fills the struct's padding and is not part of
/// equality.
struct Neighbor {
  uint64_t id = 0;
  float distance = 0.f;
  uint32_t partition = 0;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};
static_assert(sizeof(Neighbor) == 16, "partition must fit in the padding");

/// A bounded max-heap keeping the k smallest-distance neighbors seen so
/// far. Push is O(log k); the heap root is the current worst kept distance,
/// which doubles as the pruning bound during partition scans.
class TopKHeap {
 public:
  /// Up-front reserve ceiling: any k is valid (a request may ask for more
  /// rows than exist), so beyond this the heap grows with the rows
  /// actually pushed instead of allocating k slots it may never fill.
  static constexpr size_t kMaxReserve = 4096;

  explicit TopKHeap(size_t k) : k_(k) {
    heap_.reserve(std::min(k, kMaxReserve));
  }

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  /// Worst (largest) distance currently kept; only meaningful when full().
  float WorstDistance() const { return heap_.front().distance; }

  /// Returns true if a candidate at `distance` would be accepted whatever
  /// its id (a tie with the worst kept distance depends on the id).
  bool WouldAccept(float distance) const {
    return heap_.size() < k_ || distance < heap_.front().distance;
  }

  /// Offers a candidate; keeps it only if it is among the k best so far
  /// in (distance, id) order, so the kept set does not depend on the order
  /// of the pushes, even with tied distances. `partition` is carried along
  /// untouched (0 for heaps whose ids are not vector rows, e.g. centroid
  /// probes).
  void Push(uint64_t id, float distance, uint32_t partition = 0) {
    if (heap_.size() < k_) {
      heap_.push_back({id, distance, partition});
      std::push_heap(heap_.begin(), heap_.end(), ByDistance);
    } else if (ByDistance({id, distance, partition}, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), ByDistance);
      heap_.back() = {id, distance, partition};
      std::push_heap(heap_.begin(), heap_.end(), ByDistance);
    }
  }

  /// Merges another heap's contents into this one.
  void Merge(const TopKHeap& other) {
    for (const Neighbor& n : other.heap_) {
      Push(n.id, n.distance, n.partition);
    }
  }

  /// Extracts results sorted by ascending distance (ties by id for
  /// determinism). The heap is left empty.
  std::vector<Neighbor> TakeSorted() {
    std::vector<Neighbor> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.id < b.id;
    });
    return out;
  }

  /// Read-only view of the unsorted contents (test helper).
  const std::vector<Neighbor>& contents() const { return heap_; }

 private:
  static bool ByDistance(const Neighbor& a, const Neighbor& b) {
    // max-heap on distance; break ties on id so heap contents (and thus
    // eviction order) are deterministic.
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }

  size_t k_;
  std::vector<Neighbor> heap_;
};

/// Merges per-thread heaps into one sorted result list of at most k items.
std::vector<Neighbor> MergeHeapsSorted(std::vector<TopKHeap>& heaps, size_t k);

}  // namespace micronn

#endif  // MICRONN_NUMERICS_TOPK_H_
