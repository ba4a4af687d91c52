#include "query/explain.h"

#include <cstdio>

namespace micronn {

std::string QueryExplain::ToString() const {
  char buf[256];
  int len = std::snprintf(
      buf, sizeof(buf),
      "plan=%.*s partitions=%llu rows=%llu filtered=%llu",
      static_cast<int>(QueryPlanName(plan).size()), QueryPlanName(plan).data(),
      static_cast<unsigned long long>(partitions_scanned),
      static_cast<unsigned long long>(rows_scanned),
      static_cast<unsigned long long>(rows_filtered));
  std::string out(buf, len > 0 ? static_cast<size_t>(len) : 0);
  if (plan == QueryPlan::kPreFilter) {
    len = std::snprintf(buf, sizeof(buf), " candidates=%llu",
                        static_cast<unsigned long long>(candidates));
  } else {
    len = std::snprintf(buf, sizeof(buf), " nprobe=%u probes=%llu", nprobe,
                        static_cast<unsigned long long>(probe_pairs));
  }
  out.append(buf, len > 0 ? static_cast<size_t>(len) : 0);
  if (quantized) {
    len = std::snprintf(
        buf, sizeof(buf),
        " sq8[partitions=%llu rerank=%llu/%u rows_reranked=%llu "
        "flagged=%llu]",
        static_cast<unsigned long long>(partitions_quantized),
        static_cast<unsigned long long>(rerank_candidates), rerank_budget,
        static_cast<unsigned long long>(rows_reranked),
        static_cast<unsigned long long>(rerank_flagged));
    out.append(buf, len > 0 ? static_cast<size_t>(len) : 0);
  }
  if (partitions_quarantined > 0 || rows_quarantined > 0) {
    len = std::snprintf(
        buf, sizeof(buf),
        " quarantined[partitions=%llu rows=%llu]",
        static_cast<unsigned long long>(partitions_quarantined),
        static_cast<unsigned long long>(rows_quarantined));
    out.append(buf, len > 0 ? static_cast<size_t>(len) : 0);
  }
  if (optimized) {
    len = std::snprintf(buf, sizeof(buf), " est[filter=%.4f ivf=%.4f]",
                        decision.filter_selectivity, decision.ivf_selectivity);
    out.append(buf, len > 0 ? static_cast<size_t>(len) : 0);
  }
  if (group_size > 1) {
    len = std::snprintf(
        buf, sizeof(buf),
        " group[size=%u shared=%s partitions=%llu rows=%llu probes=%llu]",
        group_size, shared_scan ? "yes" : "no",
        static_cast<unsigned long long>(group_partitions_scanned),
        static_cast<unsigned long long>(group_rows_scanned),
        static_cast<unsigned long long>(group_probe_pairs));
    out.append(buf, len > 0 ? static_cast<size_t>(len) : 0);
  }
  if (coalesced_group_size > 1) {
    len = std::snprintf(buf, sizeof(buf),
                        " coalesced[submissions=%u wait=%lluus]",
                        coalesced_group_size,
                        static_cast<unsigned long long>(coalesce_wait_us));
    out.append(buf, len > 0 ? static_cast<size_t>(len) : 0);
  }
  return out;
}

}  // namespace micronn
