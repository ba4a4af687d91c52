// EXPLAIN invariants: what the query executor, the one writer of every
// QueryExplain counter, must keep true of each response of a group
// (shared by the batch parity tests and the SQ8 rerank tests).
#ifndef MICRONN_TESTS_SUPPORT_EXPLAIN_INVARIANTS_H_
#define MICRONN_TESTS_SUPPORT_EXPLAIN_INVARIANTS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "core/options.h"

namespace micronn {

// `responses` must be one whole executed group — every response of one
// BatchSearch, or one Search, with no concurrent peers coalesced beside
// it — and `requests[i]` the request behind `responses[i]`.
inline void ExpectExplainInvariants(std::span<const SearchRequest> requests,
                                    std::span<const SearchResponse> responses) {
  ASSERT_EQ(requests.size(), responses.size());
  if (responses.empty()) return;
  const QueryExplain& first = responses[0].explain;
  uint64_t probe_pairs = 0;
  for (size_t q = 0; q < responses.size(); ++q) {
    const QueryExplain& ex = responses[q].explain;
    SCOPED_TRACE("q=" + std::to_string(q) + " " + ex.ToString());
    EXPECT_LE(ex.partitions_quantized + ex.partitions_quarantined,
              ex.partitions_scanned);
    EXPECT_LE(ex.rerank_candidates, ex.rerank_budget);
    EXPECT_LE(std::min<uint64_t>(requests[q].k, ex.rerank_candidates),
              ex.rows_reranked);
    EXPECT_LE(ex.rows_reranked, ex.rerank_candidates);
    if (ex.plan == QueryPlan::kUnfiltered ||
        ex.plan == QueryPlan::kPostFilter) {
      // The probe set plus the delta store.
      EXPECT_EQ(ex.partitions_scanned, ex.probe_pairs + 1);
    }
    if (ex.plan == QueryPlan::kPreFilter) {
      EXPECT_EQ(ex.partitions_scanned, 0u);
      EXPECT_LE(ex.rows_scanned, ex.candidates);
    }
    EXPECT_EQ(ex.group_size, responses.size());
    EXPECT_EQ(ex.group_partitions_scanned, first.group_partitions_scanned);
    EXPECT_EQ(ex.group_rows_scanned, first.group_rows_scanned);
    EXPECT_EQ(ex.group_probe_pairs, first.group_probe_pairs);
    probe_pairs += ex.probe_pairs;
  }
  EXPECT_EQ(first.group_probe_pairs, probe_pairs);
}

// One Search and its response: a group of one.
inline void ExpectExplainInvariants(const SearchRequest& request,
                                    const SearchResponse& response) {
  ExpectExplainInvariants(std::span<const SearchRequest>(&request, 1),
                          std::span<const SearchResponse>(&response, 1));
}

}  // namespace micronn

#endif  // MICRONN_TESTS_SUPPORT_EXPLAIN_INVARIANTS_H_
