// The SQ8 sidecar invariant, checked row for row over a database's live
// generation (shared by the SQ8 lifecycle tests and the crash-point sweep).
#ifndef MICRONN_TESTS_SUPPORT_SQ8_SIDECAR_CHECK_H_
#define MICRONN_TESTS_SUPPORT_SQ8_SIDECAR_CHECK_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/db.h"
#include "ivf/schema.h"
#include "numerics/sq8.h"
#include "storage/key_encoding.h"

namespace micronn {

// Whenever a partition has parameters, its sidecar rows mirror the float
// rows key-for-key, every code byte is exactly what re-quantizing the
// stored float row would produce, and every row's reconstruction error
// (in double) is within the partition's stored max_error. A partition
// without parameters has no sidecar rows. No orphans either direction.
inline void VerifySidecar(DB* db) {
  const uint32_t dim = db->options().dim;
  auto txn = db->engine()->BeginRead().value();
  BTree vectors = txn->OpenTable(kVectorsTable).value();
  BTree sq8 = txn->OpenTable(kSq8Table).value();
  BTree sq8params = txn->OpenTable(kSq8ParamsTable).value();

  std::map<uint32_t, Sq8PartitionParams> params;
  {
    BTreeCursor c = sq8params.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      std::string_view key = c.key();
      uint32_t partition;
      ASSERT_TRUE(key::ConsumeU32(&key, &partition));
      Sq8PartitionParams p;
      ASSERT_TRUE(DecodeSq8Params(c.value().value(), dim, &p).ok());
      params.emplace(partition, std::move(p));
      ASSERT_TRUE(c.Next().ok());
    }
  }

  size_t quantized_rows = 0;
  std::vector<uint8_t> expect(dim);
  {
    BTreeCursor c = vectors.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      uint32_t partition;
      uint64_t vid;
      ASSERT_TRUE(ParseVectorKey(c.key(), &partition, &vid).ok());
      VectorRow row;
      const std::string value = c.value().value();
      ASSERT_TRUE(DecodeVectorRow(value, dim, &row).ok());
      auto sq8_row = sq8.Get(VectorKey(partition, vid)).value();
      auto it = params.find(partition);
      if (it == params.end()) {
        EXPECT_FALSE(sq8_row.has_value())
            << "sidecar row without params, partition " << partition;
      } else {
        ASSERT_TRUE(sq8_row.has_value())
            << "missing sidecar row, partition " << partition << " vid "
            << vid;
        const Sq8PartitionParams& p = it->second;
        const uint8_t* codes = DecodeSq8Row(*sq8_row, dim).value();
        // The blob sits at an arbitrary offset inside the row encoding;
        // copy it out so the float loads are aligned.
        std::vector<float> vec(dim);
        std::memcpy(vec.data(), row.vector_blob.data(), dim * sizeof(float));
        QuantizeSq8(vec.data(), p.min.data(), p.scale.data(), dim,
                    expect.data());
        EXPECT_EQ(0, std::memcmp(codes, expect.data(), dim))
            << "stale codes, partition " << partition << " vid " << vid;
        double sum = 0;
        for (uint32_t d = 0; d < dim; ++d) {
          const double recon =
              double{p.min[d]} + double{p.scale[d]} * codes[d];
          sum += (vec[d] - recon) * (vec[d] - recon);
        }
        EXPECT_LE(std::sqrt(sum), double{p.max_error})
            << "reconstruction error above the stored bound, partition "
            << partition << " vid " << vid;
        ++quantized_rows;
      }
      ASSERT_TRUE(c.Next().ok());
    }
  }
  // No orphans: every sidecar row has a float row.
  size_t sidecar_rows = 0;
  {
    BTreeCursor c = sq8.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      uint32_t partition;
      uint64_t vid;
      ASSERT_TRUE(ParseVectorKey(c.key(), &partition, &vid).ok());
      EXPECT_TRUE(vectors.Get(VectorKey(partition, vid)).value().has_value())
          << "orphan sidecar row, partition " << partition << " vid " << vid;
      ++sidecar_rows;
      ASSERT_TRUE(c.Next().ok());
    }
  }
  EXPECT_EQ(sidecar_rows, quantized_rows);
}

}  // namespace micronn

#endif  // MICRONN_TESTS_SUPPORT_SQ8_SIDECAR_CHECK_H_
