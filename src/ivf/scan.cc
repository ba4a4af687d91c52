#include "ivf/scan.h"

#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "storage/key_encoding.h"

namespace micronn {

namespace {

// Shared scan core: iterates the cursor while keys satisfy `in_range`,
// applying the filter before any value access and handing each surviving
// row's raw value to `append` (which decodes it and assembles blocks).
// Values are borrowed via ValueView — no per-row heap allocation; the
// float and quantized scans differ only in their `append`.
template <typename Append>
Status ScanRows(BTreeCursor* cursor, const RowFilter& filter,
                ScanCounters* counters,
                const std::function<bool(std::string_view)>& in_range,
                Append&& append) {
  std::string overflow;  // ValueView spill buffer, reused across rows
  while (cursor->Valid() && in_range(cursor->key())) {
    uint32_t partition;
    uint64_t vid;
    MICRONN_RETURN_IF_ERROR(ParseVectorKey(cursor->key(), &partition, &vid));
    if (filter) {
      Result<bool> keep = filter(vid);
      if (!keep.ok() && keep.status().IsCorruption()) {
        // Quarantine: a row whose attribute record fails its checksum is
        // skipped (conservatively treated as not matching) instead of
        // failing the scan — degraded but never silently wrong.
        if (counters != nullptr) ++counters->rows_quarantined;
        MICRONN_RETURN_IF_ERROR(cursor->Next());
        continue;
      }
      MICRONN_RETURN_IF_ERROR(keep.status());
      if (!*keep) {
        if (counters != nullptr) ++counters->rows_filtered;
        MICRONN_RETURN_IF_ERROR(cursor->Next());
        continue;
      }
    }
    MICRONN_ASSIGN_OR_RETURN(std::string_view value,
                             cursor->ValueView(&overflow));
    MICRONN_RETURN_IF_ERROR(append(partition, vid, value));
    if (counters != nullptr) ++counters->rows_scanned;
    MICRONN_RETURN_IF_ERROR(cursor->Next());
  }
  return Status::OK();
}

// Key bound covering exactly one partition's contiguous range.
std::function<bool(std::string_view)> PartitionRange(std::string prefix) {
  return [prefix = std::move(prefix)](std::string_view key) {
    return key.size() >= prefix.size() &&
           key.substr(0, prefix.size()) == prefix;
  };
}

// Fixed-capacity block assembler shared by the float and quantized scan
// loops: buffers up to kScanBlockRows rows (row_elems elements each) of
// one partition and emits full blocks through
// `emit(partition, vids, rows, count)`; a row from another partition
// flushes the block first. Callers Flush() the final partial block.
template <typename Storage>
class BlockAssembler {
 public:
  using Elem =
      std::remove_reference_t<decltype(*std::declval<Storage&>().data())>;
  using Emit = std::function<Status(uint32_t partition, const uint64_t* vids,
                                    const Elem* rows, size_t count)>;

  BlockAssembler(size_t row_elems, Emit emit)
      : vids_(kScanBlockRows),
        block_(kScanBlockRows * row_elems),
        row_elems_(row_elems),
        emit_(std::move(emit)) {}

  Status Append(uint32_t partition, uint64_t vid, const Elem* row) {
    if (fill_ > 0 && partition != partition_) {
      MICRONN_RETURN_IF_ERROR(Flush());
    }
    partition_ = partition;
    vids_[fill_] = vid;
    std::memcpy(block_.data() + fill_ * row_elems_, row,
                row_elems_ * sizeof(Elem));
    if (++fill_ == kScanBlockRows) return Flush();
    return Status::OK();
  }

  Status Flush() {
    if (fill_ == 0) return Status::OK();
    const size_t count = fill_;
    fill_ = 0;
    return emit_(partition_, vids_.data(), block_.data(), count);
  }

 private:
  std::vector<uint64_t> vids_;
  Storage block_;
  size_t row_elems_;
  size_t fill_ = 0;
  uint32_t partition_ = 0;  // partition of the buffered rows
  Emit emit_;
};

}  // namespace

Status ScanPartition(BTree vectors, uint32_t partition, uint32_t dim,
                     const RowFilter& filter, const BlockCallback& cb,
                     ScanCounters* counters) {
  std::string prefix = PartitionPrefix(partition);
  BTreeCursor cursor = vectors.NewCursor();
  MICRONN_RETURN_IF_ERROR(cursor.Seek(prefix));

  BlockAssembler<AlignedFloatBuffer> blocks(
      dim, [&cb](uint32_t partition, const uint64_t* vids, const float* rows,
                 size_t count) -> Status {
        ScanBlock sb;
        sb.vids = vids;
        sb.data = rows;
        sb.count = count;
        sb.partition = partition;
        return cb(sb);
      });
  MICRONN_RETURN_IF_ERROR(ScanRows(
      &cursor, filter, counters, PartitionRange(std::move(prefix)),
      [&](uint32_t partition, uint64_t vid, std::string_view value) -> Status {
        VectorRow row;
        MICRONN_RETURN_IF_ERROR(DecodeVectorRow(value, dim, &row));
        return blocks.Append(
            partition, vid,
            reinterpret_cast<const float*>(row.vector_blob.data()));
      }));
  return blocks.Flush();
}

Status ScanPartitionSq8(BTree sq8, uint32_t partition, uint32_t dim,
                        const RowFilter& filter, const Sq8BlockCallback& cb,
                        ScanCounters* counters) {
  std::string prefix = PartitionPrefix(partition);
  BTreeCursor cursor = sq8.NewCursor();
  MICRONN_RETURN_IF_ERROR(cursor.Seek(prefix));

  BlockAssembler<std::vector<uint8_t>> blocks(
      dim, [&cb](uint32_t partition, const uint64_t* vids,
                 const uint8_t* rows, size_t count) -> Status {
        Sq8ScanBlock sb;
        sb.vids = vids;
        sb.codes = rows;
        sb.count = count;
        sb.partition = partition;
        return cb(sb);
      });
  MICRONN_RETURN_IF_ERROR(ScanRows(
      &cursor, filter, counters, PartitionRange(std::move(prefix)),
      [&](uint32_t partition, uint64_t vid, std::string_view value) -> Status {
        MICRONN_ASSIGN_OR_RETURN(const uint8_t* codes,
                                 DecodeSq8Row(value, dim));
        return blocks.Append(partition, vid, codes);
      }));
  return blocks.Flush();
}

Status CollectPartitionLeafPages(BTree table, uint32_t partition,
                                 size_t max_pages, std::vector<PageId>* out) {
  // [prefix(p), prefix(p+1)) in memcmp order; the last partition id is
  // unbounded above.
  std::string lo = PartitionPrefix(partition);
  std::string hi;
  if (partition != std::numeric_limits<uint32_t>::max()) {
    hi = PartitionPrefix(partition + 1);
  }
  return table.CollectLeafPagesInRange(lo, hi, max_pages, out);
}

Result<std::vector<uint32_t>> ListPartitions(BTree vectors) {
  std::vector<uint32_t> out;
  BTreeCursor cursor = vectors.NewCursor();
  MICRONN_RETURN_IF_ERROR(cursor.SeekToFirst());
  while (cursor.Valid()) {
    uint32_t partition;
    uint64_t vid;
    MICRONN_RETURN_IF_ERROR(ParseVectorKey(cursor.key(), &partition, &vid));
    out.push_back(partition);
    if (partition == std::numeric_limits<uint32_t>::max()) break;
    MICRONN_RETURN_IF_ERROR(cursor.Seek(PartitionPrefix(partition + 1)));
  }
  return out;
}

}  // namespace micronn
