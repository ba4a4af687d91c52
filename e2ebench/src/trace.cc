// Spans around public DB calls, counter deltas, self times, kernel timings.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "bench.h"
#include "common/memory_tracker.h"
#include "numerics/distance.h"
#include "numerics/sq8.h"

namespace e2ebench {

using micronn::DB;
using micronn::MemoryCategory;
using micronn::MemoryTracker;

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSetup:
      return "setup";
    case Phase::kCalibrate:
      return "calibrate";
    case Phase::kCold:
      return "cold";
    case Phase::kWarmup:
      return "warmup";
    case Phase::kTimed:
      return "timed";
    case Phase::kWrite:
      return "write";
    case Phase::kRecall:
      return "recall";
  }
  return "?";
}

double Span::Counter(const char* key) const {
  for (const auto& [name, value] : counters) {
    if (std::string_view(name) == key) return value;
  }
  return 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between the closest ranks.
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> Values(const TimedValues& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& sample : samples) out.push_back(sample.second);
  return out;
}

// --- Recorder ---------------------------------------------------------------

Recorder::Recorder(bool trace)
    : trace_(trace), origin_(Clock::now()), tracing_(trace) {}

int64_t Recorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Recorder::SleepUntil(int64_t ns) const {
  std::this_thread::sleep_until(origin_ + std::chrono::nanoseconds(ns));
}

std::vector<Span>* Recorder::NewBuffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<std::vector<Span>>());
  return buffers_.back().get();
}

std::vector<Span> Recorder::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

// --- Counter probes ---------------------------------------------------------

Probe TakeProbe(DB* db) {
  Probe p;
  p.io = db->io_stats_snapshot();
  const MemoryTracker& mem = MemoryTracker::Global();
  p.page_cache_bytes =
      static_cast<double>(mem.Current(MemoryCategory::kPageCache));
  p.query_exec_bytes =
      static_cast<double>(mem.Current(MemoryCategory::kQueryExec));
  return p;
}

void AddProbeDelta(const Probe& before, const Probe& after, Counters* out) {
  const micronn::IoStats::View d = after.io - before.io;
  const std::pair<const char*, uint64_t> io[] = {
      {"io.pages_read_main", d.pages_read_main},
      {"io.pages_read_wal", d.pages_read_wal},
      {"io.cache_hits", d.pages_cache_hit},
      {"io.cache_misses", d.CacheMisses()},
      {"io.cache_evictions", d.cache_evictions},
      {"io.read_syscalls", d.read_syscalls},
      {"io.batch_reads", d.batch_reads},
      {"io.pages_prefetched", d.pages_prefetched},
      {"io.prefetch_hits", d.prefetch_hits},
      {"io.read_joins", d.read_joins},
      {"io.io_retries", d.io_retries},
      {"io.corruptions_detected", d.corruptions_detected},
      {"io.write_syscalls", d.write_syscalls},
      {"io.frames_written", d.frames_written},
      {"io.wal_writes", d.wal_writes},
      {"io.wal_syncs", d.wal_syncs},
      {"io.wal_wraps", d.wal_wraps},
      {"io.checkpoint_pages", d.checkpoint_pages},
      {"io.commits", d.commits},
      {"io.row_changes", d.RowChanges()},
  };
  for (const auto& [name, value] : io) {
    if (value != 0) out->emplace_back(name, static_cast<double>(value));
  }
  out->emplace_back("mem.page_cache_bytes", after.page_cache_bytes);
  out->emplace_back("mem.query_exec_bytes", after.query_exec_bytes);
}

// --- Client -----------------------------------------------------------------

Client::Client(DB* db, Recorder* recorder, uint32_t thread)
    : db_(db),
      recorder_(recorder),
      thread_(thread),
      buffer_(recorder->NewBuffer()) {}

Span& Client::Begin(const char* name, Phase phase, Probe* before,
                    bool sampled) {
  Span& s = buffer_->emplace_back();
  s.name = name;
  s.id = recorder_->NextId();
  s.op = s.id;
  s.thread = thread_;
  s.phase = phase;
  // The top bit of a Fibonacci hash of the id is the coin.
  const bool heads = (s.id * 0x9E3779B97F4A7C15ull) >> 63 != 0;
  s.traced = recorder_->tracing() && db_ != nullptr && (!sampled || heads);
  if (s.traced) *before = TakeProbe(db_);
  s.start_ns = recorder_->Now();
  return s;
}

void Client::End(Span& span, const Probe& before) {
  span.end_ns = recorder_->Now();
  if (span.traced) AddProbeDelta(before, TakeProbe(db_), &span.counters);
}

micronn::Result<std::unique_ptr<DB>> Client::Open(
    const std::string& path, const micronn::DbOptions& options, Phase phase) {
  db_ = nullptr;
  Probe before;
  Span& s = Begin("DB::Open", phase, &before);
  auto opened = DB::Open(path, options);
  s.end_ns = recorder_->Now();
  if (opened.ok()) db_ = opened->get();
  return opened;
}

micronn::Result<micronn::SearchResponse> Client::Search(
    const micronn::SearchRequest& request, Phase phase, QueryKind kind,
    bool cold, int64_t* started_ns) {
  const int64_t called = recorder_->Now();
  Probe before;
  Span& s = Begin("DB::Search", phase, &before, /*sampled=*/true);
  const size_t at = buffer_->size() - 1;
  s.kind = kind;
  s.cold = cold;
  *started_ns = s.start_ns;
  auto result = db_->Search(request);
  End(s, before);
  if (s.traced && result.ok()) AddExplain(at, result->explain);
  (*buffer_)[at].call_ns = recorder_->Now() - called;
  return result;
}

void Client::AddExplain(size_t at, const micronn::QueryExplain& e) {
  Span& s = (*buffer_)[at];
  const std::pair<const char*, double> fields[] = {
      {"plan.prefilter", e.plan == micronn::QueryPlan::kPreFilter ? 1.0 : 0.0},
      {"plan.postfilter",
       e.plan == micronn::QueryPlan::kPostFilter ? 1.0 : 0.0},
      {"plan.candidates", static_cast<double>(e.candidates)},
      {"exec.probe_pairs", static_cast<double>(e.probe_pairs)},
      {"exec.partitions_scanned", static_cast<double>(e.partitions_scanned)},
      {"exec.partitions_quantized",
       static_cast<double>(e.partitions_quantized)},
      {"exec.rows_scanned", static_cast<double>(e.rows_scanned)},
      {"exec.rows_filtered", static_cast<double>(e.rows_filtered)},
      {"exec.rerank_candidates", static_cast<double>(e.rerank_candidates)},
      {"exec.rows_reranked", static_cast<double>(e.rows_reranked)},
      {"exec.partitions_quarantined",
       static_cast<double>(e.partitions_quarantined)},
      {"sched.group_size", static_cast<double>(e.group_size)},
      {"sched.coalesced_group_size",
       static_cast<double>(e.coalesced_group_size)},
      {"sched.wait_us", static_cast<double>(e.coalesce_wait_us)},
  };
  for (const auto& field : fields) s.counters.push_back(field);

  // The scheduler wait is the first stretch of the search: a child span.
  if (e.coalesce_wait_us > 0) {
    Span wait;
    wait.name = "scheduler.wait";
    wait.id = recorder_->NextId();
    wait.parent = s.id;
    wait.op = s.op;
    wait.thread = thread_;
    wait.phase = s.phase;
    wait.traced = true;
    wait.kind = s.kind;
    wait.start_ns = s.start_ns;
    wait.end_ns = std::min<int64_t>(
        s.end_ns,
        s.start_ns + static_cast<int64_t>(e.coalesce_wait_us) * 1000);
    buffer_->push_back(std::move(wait));  // invalidates `s`
  }
}

micronn::Status Client::Upsert(
    const std::vector<micronn::UpsertRequest>& batch, Phase phase) {
  Probe before;
  Span& s = Begin("DB::Upsert", phase, &before);
  micronn::Status st = db_->Upsert(batch);
  End(s, before);
  return st;
}

micronn::Status Client::Delete(const std::vector<std::string>& ids,
                               Phase phase) {
  Probe before;
  Span& s = Begin("DB::Delete", phase, &before);
  micronn::Status st = db_->Delete(ids);
  End(s, before);
  return st;
}

micronn::Result<micronn::MaintenanceReport> Client::Maintain(Phase phase) {
  Probe before;
  Span& s = Begin("DB::Maintain", phase, &before);
  auto result = db_->Maintain();
  End(s, before);
  if (result.ok()) {
    s.counters.emplace_back("maintain.delta_flushed",
                            static_cast<double>(result->delta_flushed));
    s.counters.emplace_back("maintain.row_changes",
                            static_cast<double>(result->row_changes));
    s.counters.emplace_back(
        "maintain.requantized",
        static_cast<double>(result->partitions_requantized));
    s.counters.emplace_back("maintain.full_rebuild",
                            result->full_rebuild ? 1.0 : 0.0);
  }
  return result;
}

void Client::DropCaches(Phase phase) {
  Probe before;
  Span& s = Begin("DB::DropCaches", phase, &before);
  db_->DropCaches();
  End(s, before);
}

micronn::Status Client::BuildIndex(Phase phase) {
  Probe before;
  Span& s = Begin("DB::BuildIndex", phase, &before);
  micronn::Status st = db_->BuildIndex();
  End(s, before);
  return st;
}

micronn::Status Client::AnalyzeStats(Phase phase) {
  Probe before;
  Span& s = Begin("DB::AnalyzeStats", phase, &before);
  micronn::Status st = db_->AnalyzeStats();
  End(s, before);
  return st;
}

micronn::Status Client::Checkpoint(Phase phase) {
  Probe before;
  Span& s = Begin("StorageEngine::Checkpoint", phase, &before);
  micronn::Status st = db_->engine()->Checkpoint();
  End(s, before);
  return st;
}

// --- Self time, kernels, output ---------------------------------------------

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) self[s.id] += s.end_ns - s.start_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  for (auto& [id, ns] : self) ns = std::max<int64_t>(ns, 0);
  return self;
}

namespace {

// Median ns/row of `reps` timed sweeps of `fn` over `rows` rows.
template <typename Fn>
double NsPerRow(size_t rows, Fn&& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < 9; ++rep) {
    size_t calls = 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    while (now - start < std::chrono::milliseconds(5)) {
      fn();
      ++calls;
      now = Clock::now();
    }
    const double ns =
        std::chrono::duration<double, std::nano>(now - start).count();
    samples.push_back(ns / static_cast<double>(calls * rows));
  }
  return Percentile(samples, 50);
}

}  // namespace

KernelTimings TimeKernels(const Inputs& in) {
  const size_t dim = in.dim();
  const size_t rows = std::min<size_t>(4096, in.n_loaded);
  const float* data = in.row(0);
  const float* query = in.query(0);
  std::vector<float> out(rows);
  double sink = 0;

  KernelTimings t;
  t.l2_ns_per_row = NsPerRow(rows, [&] {
    micronn::DistanceOneToMany(micronn::Metric::kL2, query, data, rows, dim,
                               out.data());
    sink += out[0];
  });

  // SQ8 codes with per-dimension bounds of the block, as a partition has.
  std::vector<float> lo(dim, 0), scale(dim, 0);
  for (size_t d = 0; d < dim; ++d) {
    float mn = data[d], mx = data[d];
    for (size_t r = 1; r < rows; ++r) {
      mn = std::min(mn, data[r * dim + d]);
      mx = std::max(mx, data[r * dim + d]);
    }
    lo[d] = mn;
    scale[d] = (mx - mn) / 255.f;
  }
  std::vector<uint8_t> codes(rows * dim);
  for (size_t r = 0; r < rows; ++r) {
    micronn::QuantizeSq8(data + r * dim, lo.data(), scale.data(), dim,
                         codes.data() + r * dim);
  }
  micronn::Sq8QueryContext ctx;
  ctx.Prepare(micronn::Metric::kL2, query, lo.data(), scale.data(), dim);
  t.sq8_ns_per_row = NsPerRow(rows, [&] {
    micronn::Sq8DistanceOneToMany(ctx, codes.data(), rows, out.data());
    sink += out[0];
  });
  if (sink == 0.123456) std::fputs("", stderr);  // keeps the results live
  return t;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const KernelTimings& kernels) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::map<uint64_t, int64_t> self = SelfTimesNs(spans);
  std::fprintf(f,
               "{\"kernels\": {\"l2_ns_per_row\": %.6g, "
               "\"sq8_ns_per_row\": %.6g},\n\"spans\": [\n",
               kernels.l2_ns_per_row, kernels.sq8_ns_per_row);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"op\": %llu, \"thread\": %u, \"phase\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"self_us\": %.3f",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread,
                 PhaseName(s.phase), s.start_ns / 1e3, s.end_ns / 1e3,
                 self.at(s.id) / 1e3);
    if (std::string_view(s.name) == "DB::Search") {
      std::fprintf(f, ", \"query\": \"%s\", \"cold\": %s",
                   QueryKindName(s.kind), s.cold ? "true" : "false");
    }
    if (!s.counters.empty()) {
      std::fputs(", \"counters\": {", f);
      for (size_t c = 0; c < s.counters.size(); ++c) {
        std::fprintf(f, "%s\"%s\": %.17g", c ? ", " : "", s.counters[c].first,
                     s.counters[c].second);
      }
      std::fputs("}", f);
    }
    std::fprintf(f, "}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
