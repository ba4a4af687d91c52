// Seeded inputs, brute-force ground truth and answer validation.
#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "numerics/distance.h"

namespace e2ebench {

using micronn::AttributeValue;
using micronn::CompareOp;
using micronn::Predicate;

namespace {

// Gaussian mixture of the SIFT stand-in. Few wide clusters make an
// unfiltered top-100 span many IVF partitions, so at the chosen nprobe the
// SQ8 scan reads several times its rerank budget (k * alpha = 400 rows)
// and scan, rerank and resolve are all real work.
constexpr size_t kMixtureClusters = 32;
constexpr float kMixtureStd = 0.30f;

// Tag column: one Zipf-distributed tag per row.
constexpr size_t kTagVocab = 2000;
constexpr double kTagZipf = 1.1;
// Query tags are the rare ones: selectivity in [0.4%, 1%), well under the
// IVF scan's own selectivity, so the optimizer picks pre-filtering.
constexpr double kRareTagLow = 0.004;
constexpr double kRareTagHigh = 0.01;

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUnfiltered:
      return "unfiltered";
    case QueryKind::kBucket:
      return "bucket";
    case QueryKind::kTag:
      return "tag";
  }
  return "?";
}

std::string AssetId(size_t row) { return "a" + std::to_string(row); }

bool ParseAssetId(const std::string& id, size_t* row) {
  if (id.size() < 2 || id[0] != 'a') return false;
  size_t value = 0;
  for (size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return false;
    value = value * 10 + static_cast<size_t>(id[i] - '0');
  }
  *row = value;
  return true;
}

bool Inputs::Matches(const Query& q, size_t r) const {
  switch (q.kind) {
    case QueryKind::kUnfiltered:
      return true;
    case QueryKind::kBucket:
      return bucket[r] == q.value;
    case QueryKind::kTag:
      return tag[r] == q.value;
  }
  return false;
}

size_t Inputs::LoadedMatches(const Query& q) const {
  switch (q.kind) {
    case QueryKind::kUnfiltered:
      return n_loaded;
    case QueryKind::kBucket:
      return bucket_count[q.value];
    case QueryKind::kTag:
      return tag_count[q.value];
  }
  return 0;
}

micronn::SearchRequest Inputs::Request(const Query& q, uint32_t k,
                                       uint32_t nprobe) const {
  micronn::SearchRequest req;
  req.query.assign(query(q.index), query(q.index) + dim());
  req.k = k;
  req.nprobe = nprobe;
  if (q.kind == QueryKind::kBucket) {
    req.filter = Predicate::Compare("bucket", CompareOp::kEq,
                                    AttributeValue::Int(q.value));
  } else if (q.kind == QueryKind::kTag) {
    req.filter = Predicate::Compare(
        "tag", CompareOp::kEq,
        AttributeValue::String(micronn::TagGenerator::TagName(q.value)));
  }
  return req;
}

micronn::UpsertRequest Inputs::Upsert(size_t asset_row, size_t vector_row,
                                      bool with_attributes) const {
  micronn::UpsertRequest req;
  req.asset_id = AssetId(asset_row);
  req.vector.assign(row(vector_row), row(vector_row) + dim());
  if (with_attributes) {
    req.attributes["bucket"] = AttributeValue::Int(bucket[asset_row]);
    req.attributes["tag"] = AttributeValue::String(
        micronn::TagGenerator::TagName(tag[asset_row]));
  }
  return req;
}

Inputs MakeInputs(const Config& config, size_t spare_rows) {
  Inputs in;
  in.n_loaded = config.n;
  in.ds = micronn::GenerateDataset(
      {"SIFT", config.dim, micronn::Metric::kL2, config.n + spare_rows,
       config.n_queries, kMixtureClusters, kMixtureStd, config.seed});
  const size_t total = in.ds.spec.n;
  in.bucket.resize(total);
  in.tag.resize(total);
  micronn::Rng rng(config.seed ^ 0xb0c4e75eedULL);
  micronn::TagGenerator tags(kTagVocab, kTagZipf, config.seed ^ 0x7a95eedULL);
  in.tag_count.assign(kTagVocab, 0);
  for (size_t r = 0; r < total; ++r) {
    in.bucket[r] = static_cast<uint8_t>(rng.Uniform(4));
    in.tag[r] = static_cast<uint16_t>(tags.SampleRank());
    if (r < in.n_loaded) {
      ++in.bucket_count[in.bucket[r]];
      ++in.tag_count[in.tag[r]];
    }
  }
  const double n = static_cast<double>(in.n_loaded);
  size_t closest = 0;
  for (size_t t = 0; t < kTagVocab; ++t) {
    const double sel = in.tag_count[t] / n;
    if (sel >= kRareTagLow && sel < kRareTagHigh) {
      in.rare_tags.push_back(static_cast<uint16_t>(t));
    }
    const double target = (kRareTagLow + kRareTagHigh) / 2;
    if (std::abs(sel - target) <
        std::abs(in.tag_count[closest] / n - target)) {
      closest = t;
    }
  }
  if (in.rare_tags.empty()) in.rare_tags.push_back(static_cast<uint16_t>(closest));
  return in;
}

std::vector<std::vector<uint32_t>> BruteForceTruth(
    const Inputs& in, const std::vector<Query>& queries, uint32_t k) {
  std::vector<std::vector<uint32_t>> truth(queries.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    std::vector<float> dist(in.n_loaded);
    std::vector<std::pair<float, uint32_t>> cand;
    for (size_t i = next++; i < queries.size(); i = next++) {
      const Query& q = queries[i];
      micronn::DistanceOneToMany(micronn::Metric::kL2, in.query(q.index),
                                 in.row(0), in.n_loaded, in.dim(),
                                 dist.data());
      cand.clear();
      for (size_t r = 0; r < in.n_loaded; ++r) {
        if (in.Matches(q, r)) cand.emplace_back(dist[r], static_cast<uint32_t>(r));
      }
      const size_t keep = std::min<size_t>(k, cand.size());
      std::partial_sort(cand.begin(), cand.begin() + keep, cand.end());
      for (size_t j = 0; j < keep; ++j) truth[i].push_back(cand[j].second);
    }
  };
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return truth;
}

double Recall(const micronn::SearchResponse& answer,
              const std::vector<uint32_t>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<uint32_t> want(truth.begin(), truth.end());
  size_t hit = 0;
  for (const micronn::ResultItem& item : answer.items) {
    size_t row = 0;
    if (ParseAssetId(item.asset_id, &row) && want.count(static_cast<uint32_t>(row))) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

DeletionLog::DeletionLog(size_t rows)
    : rows_(rows), at_(std::make_unique<std::atomic<int64_t>[]>(rows)) {}

void DeletionLog::MarkDeleted(size_t row, int64_t ack_ns) {
  if (row >= rows_) return;
  at_[row].store(ack_ns, std::memory_order_release);
  total_.fetch_add(1, std::memory_order_acq_rel);
}

std::string ValidateAnswer(const Inputs& in, const Query& q, uint32_t k,
                           const micronn::SearchResponse& answer,
                           const DeletionLog* deletions, int64_t started_ns) {
  const size_t got = answer.items.size();
  if (got > k) return "returned " + std::to_string(got) + " > k items";
  // Deletes only shrink and inserts only grow a filter's match set, so the
  // loaded matches minus every acknowledged delete bound it from below. A
  // post-filter plan filters only the partitions it probed, so it may come
  // back short; that costs recall, which is measured separately.
  const uint64_t deleted = deletions != nullptr ? deletions->total() : 0;
  const size_t loaded = in.LoadedMatches(q);
  const size_t floor = loaded > deleted ? loaded - deleted : 0;
  if (answer.plan != micronn::QueryPlan::kPostFilter &&
      got < std::min<size_t>(k, floor)) {
    return "returned " + std::to_string(got) + " items for a " +
           QueryKindName(q.kind) + " query with >= " + std::to_string(floor) +
           " matches";
  }
  std::unordered_set<uint64_t> vids;
  float prev = -std::numeric_limits<float>::infinity();
  for (const micronn::ResultItem& item : answer.items) {
    if (!(item.distance >= prev)) return "distances not non-decreasing";
    prev = item.distance;
    if (!vids.insert(item.vid).second) return "duplicate vid";
    size_t row = 0;
    if (!ParseAssetId(item.asset_id, &row) || row >= in.total_rows()) {
      return "unknown asset id " + item.asset_id;
    }
    if (!in.Matches(q, row)) return item.asset_id + " fails the filter";
    if (deletions != nullptr) {
      const int64_t at = deletions->DeletedAt(row);
      if (at != 0 && at < started_ns) {
        return item.asset_id + " returned after its delete was acknowledged";
      }
    }
  }
  return "";
}

}  // namespace e2ebench
