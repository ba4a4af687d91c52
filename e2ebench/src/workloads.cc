// The three workloads and the metrics they report.
//
//   warm_fit       1 closed-loop client, page cache larger than the whole
//                  database, after a warm-up: CPU layers dominate.
//   session_small  1 closed-loop client, 8 MiB cache, sessions of
//                  DropCaches + 1 cold + 19 warm queries over the whole
//                  query pool: storage layers dominate. Not one of the
//                  workloads BENCHMARK.json lists: its times follow the
//                  host's I/O path, which the speed probe does not track.
//   mixed_rw       8 MiB cache, bucket + tag attributes; 2 closed-loop
//                  readers (half unfiltered, half filtered), 1 open-loop
//                  writer of small Upsert + Delete batches, 1 thread calling
//                  Maintain every fixed number of upserted vectors.
//
// Every workload sets up the same way (timed set-up, repeated), picks its
// nprobe from a fixed ladder against brute-force truth, measures a cold
// first query, and ends with a write burst, so that every end-to-end
// metric exists on every workload. On the read-only workloads the burst
// runs after the read window, touching nothing it measured: the same
// open-loop writer and maintainer as mixed_rw, without the readers.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "bench.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "numerics/distance.h"
#include "storage/io_backend.h"

namespace e2ebench {
namespace {

using micronn::DB;
using micronn::DbOptions;
using micronn::IoStats;
using micronn::MemoryCategory;
using micronn::MemoryTracker;
using micronn::Rng;
using micronn::SearchRequest;
using micronn::SearchResponse;
using micronn::Status;

constexpr uint32_t kNprobeLadder[] = {4, 8, 16, 32, 64, 128, 256, 512};
constexpr double kTargetRecall = 0.90;
constexpr int kSetupRepeats = 3;
constexpr size_t kLoadBatchRows = 2000;
constexpr size_t kTruthQueries = 600;        // pool queries with truth
constexpr size_t kCalibrationQueries = 200;  // first of those
constexpr size_t kColdProbes = 200;
constexpr int kColdGapMs = 10;  // spreads the cold probes over ~3 s
constexpr size_t kWarmupQueries = 300;
constexpr size_t kSessionLength = 20;
constexpr size_t kFinalRecallQueries = 100;

// Writer batch: one Upsert of kReplace replacements (fresh vectors for
// live ids) and kInsert new ids, then one Delete of kDelete live ids, so
// the collection size stays level and Maintain never escalates. The write
// traffic is a stress level, not a model of any served workload. At this
// rate the write path is busy about a quarter of the mixed_rw window (each
// run reports the share it measured, and the writer's lag), so the
// open-loop writer keeps up when a shared host runs twice as slow for a
// while; at 1.5x and 3x the commits per second it fell behind in some
// runs, and its latency from due time then measured the backlog. Maintain
// runs every kMaintainEveryUpserts upserted vectors, half the delta_trigger
// of the library's BackgroundMaintainer, so that a window holds about ten
// cycles and their median is steady.
constexpr size_t kReplace = 4;
constexpr size_t kInsert = 4;
constexpr size_t kDelete = 4;
constexpr double kWriterBatchesPerSec = 50;  // open loop
constexpr size_t kWriteBurstBatches = 900;   // read-only workloads
constexpr uint64_t kMaintainEveryUpserts = 500;

// Every time metric but set-up is put at the reference speed by the probes
// around the moment it was measured (SpeedLog::ScaleAt). The threads that
// make timed calls also time a SpeedProbe: a reader after every
// kProbeEvery searches, the writer after every kProbeEvery batches when it
// has the slack before the next one is due, the cold probes after each
// query. A probe costs a reader about 3% of its time. Set-up is reported as
// measured: most of it is BuildIndex, one call with nothing to interleave,
// and probes before and after it ran with the CPU caches in another state
// than the build did, which made the scaled time noisier than the raw one.
constexpr size_t kProbeEvery = 8;
constexpr int64_t kWriterSlackNs = 2'000'000;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kPageBytes = 4096;

struct Shape {
  const char* name;
  size_t cache_bytes;
  int readers;
  bool sessions;
  bool mixed;  // attributes, filtered queries, writer beside the readers
};

constexpr Shape kShapes[] = {
    {"warm_fit", 256ull << 20, 1, false, false},
    {"session_small", 8ull << 20, 1, true, false},
    {"mixed_rw", 8ull << 20, 2, false, true},
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The writer's deterministic op stream.
class WriteStream {
 public:
  struct Batch {
    std::vector<micronn::UpsertRequest> upserts;
    std::vector<std::string> deletes;
    std::vector<size_t> deleted_rows;
  };

  WriteStream(const Inputs& in, bool attributes, uint64_t seed)
      : in_(in), attributes_(attributes), rng_(seed), next_(in.n_loaded) {
    live_.resize(in.n_loaded);
    std::iota(live_.begin(), live_.end(), size_t{0});
  }

  Batch Next() {
    Batch b;
    for (size_t i = 0; i < kDelete && live_.size() > kReplace + 1; ++i) {
      const size_t at = rng_.Uniform(live_.size());
      b.deleted_rows.push_back(live_[at]);
      b.deletes.push_back(AssetId(live_[at]));
      live_[at] = live_.back();
      live_.pop_back();
    }
    std::vector<size_t> picked;
    while (picked.size() < kReplace) {
      const size_t row = live_[rng_.Uniform(live_.size())];
      if (std::find(picked.begin(), picked.end(), row) == picked.end()) {
        picked.push_back(row);
      }
    }
    for (size_t row : picked) {
      b.upserts.push_back(in_.Upsert(row, TakeFresh(), attributes_));
    }
    for (size_t i = 0; i < kInsert; ++i) {
      const size_t row = TakeFresh();
      b.upserts.push_back(in_.Upsert(row, row, attributes_));
      live_.push_back(row);
    }
    return b;
  }

  size_t live() const { return live_.size(); }

  /// Fresh generator rows one batch consumes.
  static constexpr size_t kRowsPerBatch = kReplace + kInsert;

 private:
  size_t TakeFresh() {
    // MakeInputs sizes the pool for every batch a run can send.
    return std::min(next_++, in_.total_rows() - 1);
  }

  const Inputs& in_;
  bool attributes_;
  Rng rng_;
  size_t next_;
  std::vector<size_t> live_;
};

class Run {
 public:
  Run(const Config& config, const Shape& shape, Report* report)
      : config_(config),
        shape_(shape),
        report_(report),
        recorder_(config.trace),
        main_(nullptr, &recorder_, 0) {}

  bool Execute();

 private:
  DbOptions Options() const;
  void RemoveFiles() const;
  bool SetUp();
  void Calibrate();
  void ColdProbes();
  void Warmup();
  void TimedSingleClient();
  void TimedMixed();
  void WriteBurst();
  void FinalRecall();
  void Finish();
  void Metrics();
  void LayerMetrics(const std::vector<Span>& spans);

  Query NextQuery(Rng& rng) const;
  Query MixQuery(size_t j) const;
  /// Issues one search and validates it. Fills `answer` when given;
  /// returns the recall against `truth` when given, else -1.
  double SearchOnce(Client& c, const Query& q, Phase phase, bool cold,
                    uint32_t nprobe, const std::vector<uint32_t>* truth,
                    bool exact = false, SearchResponse* answer = nullptr);
  /// Sends one writer batch; records acknowledged deletes.
  void SendBatch(Client& c, const WriteStream::Batch& b, Phase phase);
  /// Runs Maintain each time `upserted_rows_` crosses the next multiple of
  /// kMaintainEveryUpserts, until the writer is done and caught up.
  void MaintainLoop(Phase phase);
  /// Sends `batches` writer batches on the open-loop schedule from `start`.
  void OpenLoopWriter(Client& c, int64_t start, size_t batches, Phase phase);
  void Fail(const std::string& why);
  void StartTraceWindow();
  /// Times the speed probe once on this thread.
  void ProbeSpeed();

  const Config& config_;
  const Shape& shape_;
  Report* report_;
  Recorder recorder_;
  Client main_;
  Inputs in_;
  std::unique_ptr<DB> db_;
  std::string path_;
  std::unique_ptr<DeletionLog> deletions_;
  std::unique_ptr<WriteStream> stream_;
  uint32_t nprobe_ = 0;
  uint32_t n_partitions_ = 0;
  std::string ladder_;  // "nprobe:recall" per rung tried
  std::vector<std::vector<uint32_t>> truth_;  // pool queries [0, kTruth)

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> full_rebuilds_{0};
  std::mutex violations_mutex_;

  // Writer <-> maintainer hand-off.
  std::mutex write_mutex_;
  std::condition_variable write_cv_;
  uint64_t upserted_rows_ = 0;
  bool writer_done_ = false;

  // Measurements.
  std::vector<double> setup_s_;
  int64_t cold_start_ns_ = 0, cold_end_ns_ = 0;
  int64_t write_start_ns_ = 0, write_end_ns_ = 0;
  std::vector<double> recall_;
  std::vector<std::pair<int64_t, double>> batch_ms_;  // (due, latency)
  std::vector<double> lag_ms_;
  int64_t writer_start_ns_ = 0, writer_end_ns_ = 0;
  int64_t timed_start_ns_ = 0, timed_end_ns_ = 0, trace_start_ns_ = 0;
  double mem_peak_bytes_ = 0;
  double page_cache_end_bytes_ = 0;
  double space_bytes_ = 0;
  uint64_t live_rows_ = 0;
  IoStats::View io_trace_start_, io_read_end_;
  IoStats::View io_write_start_, io_write_end_, io_final_checkpoint_;
  KernelTimings kernels_;
  SpeedProbe probe_;
  SpeedLog speed_;
};

DbOptions Run::Options() const {
  DbOptions o;
  o.dim = config_.dim;
  o.metric = micronn::Metric::kL2;
  o.pager.cache_bytes = shape_.cache_bytes;
  // The library's default flush policy (sync_on_commit off): on a host
  // whose disk other tenants share, an fdatasync per commit made set-up and
  // writer latency follow their disk traffic (upsert_p50_ms rose fivefold
  // in some runs), which no probe of this benchmark can scale away.
  return o;
}

void Run::RemoveFiles() const {
  std::error_code ec;
  for (const char* suffix : {"", "-wal", "-sum"}) {
    std::filesystem::remove(path_ + suffix, ec);
  }
}

void Run::ProbeSpeed() {
  const double ms = probe_.Run();
  speed_.Add(recorder_.Now(), ms);
}

void Run::Fail(const std::string& why) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(violations_mutex_);
  if (report_->violations.size() < 10) report_->violations.push_back(why);
}

Query Run::NextQuery(Rng& rng) const {
  Query q;
  q.index = static_cast<uint32_t>(rng.Uniform(config_.n_queries));
  if (shape_.mixed) {
    const uint64_t pick = rng.Uniform(4);
    if (pick == 2) {
      q.kind = QueryKind::kBucket;
      q.value = static_cast<uint32_t>(rng.Uniform(4));
    } else if (pick == 3) {
      q.kind = QueryKind::kTag;
      q.value = in_.rare_tags[rng.Uniform(in_.rare_tags.size())];
    }
  }
  return q;
}

Query Run::MixQuery(size_t j) const {
  Query q;
  q.index = static_cast<uint32_t>(j % config_.n_queries);
  if (shape_.mixed && j % 4 == 2) {
    q.kind = QueryKind::kBucket;
    q.value = static_cast<uint32_t>((j / 4) % 4);
  } else if (shape_.mixed && j % 4 == 3) {
    q.kind = QueryKind::kTag;
    q.value = in_.rare_tags[(j / 4) % in_.rare_tags.size()];
  }
  return q;
}

double Run::SearchOnce(Client& c, const Query& q, Phase phase, bool cold,
                       uint32_t nprobe, const std::vector<uint32_t>* truth,
                       bool exact, SearchResponse* answer) {
  SearchRequest req = in_.Request(q, config_.k, nprobe);
  req.exact = exact;
  int64_t started = 0;
  auto result = c.Search(req, phase, q.kind, cold, &started);
  attempted_.fetch_add(1);
  if (!result.ok()) {
    Fail("search: " + result.status().ToString());
    return -1;
  }
  const std::string bad = ValidateAnswer(in_, q, config_.k, *result,
                                         deletions_.get(), started);
  if (!bad.empty()) {
    Fail(bad + " [" + PhaseName(phase) + ", " +
         std::string(micronn::QueryPlanName(result->explain.plan)) + "]");
    return -1;
  }
  const double recall = truth != nullptr ? Recall(*result, *truth) : -1;
  if (answer != nullptr) *answer = std::move(result).value();
  return recall;
}

void Run::SendBatch(Client& c, const WriteStream::Batch& b, Phase phase) {
  attempted_.fetch_add(2);
  Status st = c.Upsert(b.upserts, phase);
  if (!st.ok()) Fail("upsert: " + st.ToString());
  st = c.Delete(b.deletes, phase);
  if (!st.ok()) {
    Fail("delete: " + st.ToString());
  } else {
    const int64_t ack = recorder_.Now();
    for (size_t row : b.deleted_rows) deletions_->MarkDeleted(row, ack);
  }
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    upserted_rows_ += b.upserts.size();
  }
  write_cv_.notify_all();
}

void Run::MaintainLoop(Phase phase) {
  Client c(db_.get(), &recorder_, static_cast<uint32_t>(shape_.readers + 2));
  uint64_t next = kMaintainEveryUpserts;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(write_mutex_);
      write_cv_.wait(lock,
                     [&] { return upserted_rows_ >= next || writer_done_; });
      if (upserted_rows_ < next) return;
    }
    attempted_.fetch_add(1);
    auto report = c.Maintain(phase);
    if (!report.ok()) {
      Fail("maintain: " + report.status().ToString());
    } else if (report->full_rebuild) {
      // Size stays level by construction; an escalation is a finding.
      full_rebuilds_.fetch_add(1);
    }
    next += kMaintainEveryUpserts;
  }
}

bool Run::SetUp() {
  const DbOptions options = Options();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (db_ != nullptr) {
      db_->Close().ok();
      db_.reset();
    }
    RemoveFiles();
    const Clock::time_point start = Clock::now();
    auto opened = main_.Open(path_, options, Phase::kSetup);
    if (!opened.ok()) {
      report_->notes.push_back("open: " + opened.status().ToString());
      return false;
    }
    db_ = std::move(opened).value();
    std::vector<micronn::UpsertRequest> batch;
    for (size_t r = 0; r < in_.n_loaded; ++r) {
      batch.push_back(in_.Upsert(r, r, shape_.mixed));
      if (batch.size() == kLoadBatchRows || r + 1 == in_.n_loaded) {
        const Status st = main_.Upsert(batch, Phase::kSetup);
        if (!st.ok()) {
          report_->notes.push_back("load: " + st.ToString());
          return false;
        }
        batch.clear();
      }
    }
    Status st = main_.BuildIndex(Phase::kSetup);
    if (st.ok()) st = main_.AnalyzeStats(Phase::kSetup);
    if (!st.ok()) {
      report_->notes.push_back("build: " + st.ToString());
      return false;
    }
    setup_s_.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  // Fold the set-up's log so the write counters start from a clean WAL.
  const Status st = main_.Checkpoint(Phase::kSetup);
  if (!st.ok()) report_->notes.push_back("checkpoint: " + st.ToString());
  auto stats = db_->GetIndexStats();
  n_partitions_ = stats.ok() ? stats->n_partitions : 0;
  return n_partitions_ > 0;
}

void Run::Calibrate() {
  std::vector<Query> queries;
  for (size_t j = 0; j < kCalibrationQueries; ++j) queries.push_back(MixQuery(j));
  // Read-only workloads reuse the pool truth; mixed_rw needs filtered truth.
  std::vector<std::vector<uint32_t>> mixed_truth;
  if (shape_.mixed) mixed_truth = BruteForceTruth(in_, queries, config_.k);
  const auto& truth = shape_.mixed ? mixed_truth : truth_;

  std::string tried;
  for (uint32_t rung : kNprobeLadder) {
    nprobe_ = std::min(rung, n_partitions_);
    std::vector<double> recalls;
    for (size_t j = 0; j < queries.size(); ++j) {
      recalls.push_back(std::max(0.0, SearchOnce(main_, queries[j],
                                                 Phase::kCalibrate, false,
                                                 nprobe_, &truth[j])));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%u:%.4f", tried.empty() ? "" : " ",
                  nprobe_, Mean(recalls));
    tried += buf;
    if (Mean(recalls) >= kTargetRecall || nprobe_ == n_partitions_) break;
  }
  ladder_ = tried;
}

void Run::ColdProbes() {
  Rng rng(config_.seed ^ 0xc01dULL);
  cold_start_ns_ = recorder_.Now();
  for (size_t i = 0; i < kColdProbes; ++i) {
    // The paper's ColdStart: a plain top-k query on empty caches.
    Query q;
    q.index = static_cast<uint32_t>(rng.Uniform(config_.n_queries));
    main_.DropCaches(Phase::kCold);
    SearchOnce(main_, q, Phase::kCold, true, nprobe_, nullptr);
    ProbeSpeed();
    std::this_thread::sleep_for(std::chrono::milliseconds(kColdGapMs));
  }
  cold_end_ns_ = recorder_.Now();
}

void Run::Warmup() {
  Rng rng(config_.seed ^ 0x3a3bULL);
  if (!shape_.mixed) {
    // One exhaustive scan faults in every float row and one full-probe ANN
    // every SQ8 partition; ordinary queries then warm the lookup tables.
    SearchOnce(main_, Query{}, Phase::kWarmup, false, nprobe_, nullptr,
               /*exact=*/true);
    SearchOnce(main_, Query{}, Phase::kWarmup, false, n_partitions_, nullptr);
  }
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    SearchOnce(main_, NextQuery(rng), Phase::kWarmup, false, nprobe_,
               nullptr);
  }
}

void Run::StartTraceWindow() {
  trace_start_ns_ = recorder_.Now();
  io_trace_start_ = db_->io_stats_snapshot();
  recorder_.set_tracing(true);
}

void Run::TimedSingleClient() {
  Rng rng(config_.seed ^ 0x71bedULL);
  recorder_.set_tracing(false);
  MemoryTracker::Global().ResetPeak();
  const int64_t start = recorder_.Now();
  const int64_t half = start + static_cast<int64_t>(config_.seconds * 0.5e9);
  const int64_t end = start + static_cast<int64_t>(config_.seconds * 1e9);
  bool tracing = false;
  for (size_t i = 0; recorder_.Now() < end; ++i) {
    if (config_.trace && !tracing && recorder_.Now() >= half) {
      tracing = true;
      StartTraceWindow();
    }
    const bool cold = shape_.sessions && i % kSessionLength == 0;
    if (cold) main_.DropCaches(Phase::kTimed);
    const Query q = NextQuery(rng);
    const double r =
        SearchOnce(main_, q, Phase::kTimed, cold, nprobe_,
                   q.index < truth_.size() ? &truth_[q.index] : nullptr);
    if (r >= 0) recall_.push_back(r);
    if (i % kProbeEvery == kProbeEvery - 1) ProbeSpeed();
  }
  timed_start_ns_ = start;
  timed_end_ns_ = recorder_.Now();
  if (shape_.sessions) {
    cold_start_ns_ = timed_start_ns_;
    cold_end_ns_ = timed_end_ns_;
  }
  io_read_end_ = db_->io_stats_snapshot();
  mem_peak_bytes_ = static_cast<double>(MemoryTracker::Global().PeakTotal());
  page_cache_end_bytes_ = static_cast<double>(
      MemoryTracker::Global().Current(MemoryCategory::kPageCache));
  recorder_.set_tracing(true);
}

void Run::TimedMixed() {
  recorder_.set_tracing(false);
  MemoryTracker::Global().ResetPeak();
  io_write_start_ = db_->io_stats_snapshot();
  const int64_t start = recorder_.Now();
  const int64_t half = start + static_cast<int64_t>(config_.seconds * 0.5e9);
  const int64_t end = start + static_cast<int64_t>(config_.seconds * 1e9);

  std::vector<std::thread> threads;
  for (int r = 0; r < shape_.readers; ++r) {
    threads.emplace_back([this, r, end] {
      const auto thread = static_cast<uint32_t>(r + 1);
      Client c(db_.get(), &recorder_, thread);
      Rng rng(config_.seed ^ (0x4eade7ULL * static_cast<uint64_t>(r + 1)));
      for (size_t i = 0; recorder_.Now() < end; ++i) {
        SearchOnce(c, NextQuery(rng), Phase::kTimed, false, nprobe_, nullptr);
        if (i % kProbeEvery == kProbeEvery - 1) ProbeSpeed();
      }
    });
  }
  const size_t batches = static_cast<size_t>(
      std::ceil(config_.seconds * kWriterBatchesPerSec));
  threads.emplace_back([this, start, batches] {
    Client c(db_.get(), &recorder_, static_cast<uint32_t>(shape_.readers + 1));
    OpenLoopWriter(c, start, batches, Phase::kTimed);
  });
  std::thread maintainer([this] { MaintainLoop(Phase::kTimed); });

  if (config_.trace) {
    recorder_.SleepUntil(half);
    StartTraceWindow();
  }
  for (std::thread& t : threads) t.join();
  maintainer.join();
  timed_start_ns_ = start;
  timed_end_ns_ = end;
  write_start_ns_ = start;
  write_end_ns_ = recorder_.Now();
  io_read_end_ = db_->io_stats_snapshot();
  mem_peak_bytes_ = static_cast<double>(MemoryTracker::Global().PeakTotal());
  page_cache_end_bytes_ = static_cast<double>(
      MemoryTracker::Global().Current(MemoryCategory::kPageCache));
  recorder_.set_tracing(true);
}

void Run::WriteBurst() {
  io_write_start_ = db_->io_stats_snapshot();
  write_start_ns_ = recorder_.Now();
  std::thread maintainer([this] { MaintainLoop(Phase::kWrite); });
  OpenLoopWriter(main_, write_start_ns_, kWriteBurstBatches, Phase::kWrite);
  maintainer.join();
  write_end_ns_ = recorder_.Now();
}

void Run::OpenLoopWriter(Client& c, int64_t start, size_t batches,
                         Phase phase) {
  // Batch i is due at start + i / rate whatever happened to batch i-1, and
  // is timed from then, so a stall also counts against the batches queued
  // behind it.
  const double interval_ns = 1e9 / kWriterBatchesPerSec;
  writer_start_ns_ = start;
  for (size_t i = 0; i < batches; ++i) {
    const int64_t due = start + static_cast<int64_t>(i * interval_ns);
    const WriteStream::Batch b = stream_->Next();
    recorder_.SleepUntil(due);
    lag_ms_.push_back(static_cast<double>(recorder_.Now() - due) / 1e6);
    SendBatch(c, b, phase);
    batch_ms_.emplace_back(
        due, static_cast<double>(recorder_.Now() - due) / 1e6);
    const int64_t next_due =
        start + static_cast<int64_t>((i + 1) * interval_ns);
    if (i % kProbeEvery == 0 && recorder_.Now() + kWriterSlackNs < next_due) {
      ProbeSpeed();
    }
  }
  writer_end_ns_ = recorder_.Now();
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    writer_done_ = true;
  }
  write_cv_.notify_all();
}

void Run::FinalRecall() {
  // Against exact=true on the final snapshot, filtered and unfiltered.
  for (size_t j = kTruthQueries; j < kTruthQueries + kFinalRecallQueries;
       ++j) {
    const Query q = MixQuery(j);
    SearchResponse exact;
    SearchOnce(main_, q, Phase::kRecall, false, nprobe_, nullptr,
               /*exact=*/true, &exact);
    if (exact.items.empty()) continue;
    std::vector<uint32_t> truth;
    for (const micronn::ResultItem& item : exact.items) {
      size_t row = 0;
      if (ParseAssetId(item.asset_id, &row)) truth.push_back(static_cast<uint32_t>(row));
    }
    const double r =
        SearchOnce(main_, q, Phase::kRecall, false, nprobe_, &truth);
    if (r >= 0) recall_.push_back(r);
  }
}

void Run::Finish() {
  const Phase phase = shape_.mixed ? Phase::kTimed : Phase::kWrite;
  const IoStats::View before = db_->io_stats_snapshot();
  attempted_.fetch_add(1);
  const Status st = main_.Checkpoint(phase);
  if (!st.ok()) Fail("checkpoint: " + st.ToString());
  io_write_end_ = db_->io_stats_snapshot();
  io_final_checkpoint_ = io_write_end_ - before;

  // The collection must hold exactly what the writer left live.
  attempted_.fetch_add(1);
  auto count = db_->VectorCount();
  live_rows_ = stream_->live();
  if (!count.ok() || *count != live_rows_) {
    Fail("VectorCount " +
         (count.ok() ? std::to_string(*count) : count.status().ToString()) +
         " != live rows " + std::to_string(live_rows_));
  }
  std::error_code ec;
  for (const char* suffix : {"", "-wal", "-sum"}) {
    const auto size = std::filesystem::file_size(path_ + suffix, ec);
    if (!ec) space_bytes_ += static_cast<double>(size);
  }
}

void Run::Metrics() {
  const std::vector<Span> spans = recorder_.Collect();
  // (start, ms) of the matching spans, in time order.
  auto durations = [&](const char* name, auto&& keep) {
    TimedValues out;
    for (const Span& s : spans) {
      if (std::string_view(s.name) == name && keep(s)) {
        out.emplace_back(s.start_ns, s.ms());
      }
    }
    return out;
  };
  const TimedValues warm = durations("DB::Search", [](const Span& s) {
    return s.phase == Phase::kTimed && !s.cold;
  });
  const TimedValues cold =
      durations("DB::Search", [](const Span& s) { return s.cold; });
  const TimedValues all_timed = durations(
      "DB::Search", [](const Span& s) { return s.phase == Phase::kTimed; });
  const TimedValues maintain =
      durations("DB::Maintain", [](const Span&) { return true; });

  auto whole = [](const TimedValues& samples, double p) {
    return Percentile(Values(samples), p);
  };
  // Each time at the reference speed of the moment it was measured.
  auto scaled = [&](const TimedValues& samples) {
    TimedValues out;
    for (const auto& [t, ms] : samples) {
      out.emplace_back(t, ms * speed_.ScaleAt(t));
    }
    return out;
  };
  const TimedValues warm_ref = scaled(warm);
  const TimedValues batches_ref = scaled(batch_ms_);
  // Searches per second of search time, summed over the closed-loop
  // readers: each reader's rate without the benchmark's own work between
  // its calls (validation, probes).
  std::map<uint32_t, std::pair<double, double>> by_reader;  // searches, s
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "DB::Search" && s.phase == Phase::kTimed) {
      by_reader[s.thread].first += 1;
      by_reader[s.thread].second += s.ms() / 1e3 * speed_.ScaleAt(s.start_ns);
    }
  }
  double qps = 0;
  for (const auto& [thread, r] : by_reader) qps += Ratio(r.first, r.second);

  auto& e2e = report_->end_to_end;
  e2e["search_p50_ms"] = {whole(warm_ref, 50), "ms"};
  e2e["search_qps"] = {qps, "1/s"};
  e2e["cold_search_p50_ms"] = {whole(scaled(cold), 50), "ms"};
  e2e["recall_at_100"] = {Mean(recall_), "ratio"};
  e2e["upsert_p50_ms"] = {whole(batches_ref, 50), "ms"};
  e2e["maintain_ms_p50"] = {whole(scaled(maintain), 50), "ms"};
  const IoStats::View w = io_write_end_ - io_write_start_;
  const double user_bytes =
      static_cast<double>(upserted_rows_) * config_.dim * sizeof(float);
  e2e["write_amp"] = {
      Ratio((w.frames_written + w.checkpoint_pages) * kPageBytes, user_bytes),
      "ratio"};
  e2e["space_amp"] = {
      Ratio(space_bytes_,
            static_cast<double>(live_rows_) * config_.dim * sizeof(float)),
      "ratio"};
  e2e["query_mem_mib"] = {mem_peak_bytes_ / kMiB, "MiB"};
  e2e["setup_s"] = {Percentile(setup_s_, 50), "s"};
  report_->tails["search_p99_ms"] = {whole(warm_ref, 99), "ms"};
  report_->tails["upsert_p99_ms"] = {whole(batches_ref, 99), "ms"};

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "speed probe p50 ms (reference %.2f): cold queries %.4f, "
                "timed window %.4f, writes %.4f",
                kReferenceProbeMs,
                speed_.MedianProbeMs(cold_start_ns_, cold_end_ns_),
                speed_.MedianProbeMs(timed_start_ns_, timed_end_ns_),
                speed_.MedianProbeMs(write_start_ns_, write_end_ns_));
  report_->notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "as measured, before scaling: search p50 %.4f ms, %.4f/s of "
                "window, cold search p50 %.4f ms, upsert p50 %.4f ms, "
                "Maintain p50 %.4f ms",
                whole(warm, 50),
                Ratio(static_cast<double>(all_timed.size()),
                      static_cast<double>(timed_end_ns_ - timed_start_ns_) /
                          1e9),
                whole(cold, 50), whole(batch_ms_, 50), whole(maintain, 50));
  report_->notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "%zu warm searches (%.0f beyond p99), %zu cold, %zu writer "
                "batches (%.0f beyond p99), %zu Maintain calls, %zu recall "
                "samples",
                warm.size(), warm.size() * 0.01, cold.size(), batch_ms_.size(),
                batch_ms_.size() * 0.01, maintain.size(), recall_.size());
  report_->notes.push_back(buf);

  // The writer's lag by half of its batches (a growing backlog would show
  // as a later half lagging more), and how busy it kept the write path:
  // time in Upsert + Delete, waits for the writer slot included, over the
  // writer's window.
  const Phase write_phase = shape_.mixed ? Phase::kTimed : Phase::kWrite;
  double writer_busy_ns = 0;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (s.phase == write_phase &&
        (name == "DB::Upsert" || name == "DB::Delete")) {
      writer_busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  const size_t half = lag_ms_.size() / 2;
  const std::vector<double> early(lag_ms_.begin(), lag_ms_.begin() + half);
  const std::vector<double> late(lag_ms_.begin() + half, lag_ms_.end());
  std::snprintf(buf, sizeof(buf),
                "writer lag ms: p50 %.3f, p99 %.3f (first half %.3f, second "
                "half %.3f), max %.3f, last %.3f; write path busy %.3f",
                Percentile(lag_ms_, 50), Percentile(lag_ms_, 99),
                Percentile(early, 99), Percentile(late, 99),
                Percentile(lag_ms_, 100),
                lag_ms_.empty() ? 0.0 : lag_ms_.back(),
                Ratio(writer_busy_ns,
                      static_cast<double>(writer_end_ns_ - writer_start_ns_)));
  report_->notes.push_back(buf);
  if (shape_.mixed) {
    for (QueryKind kind :
         {QueryKind::kUnfiltered, QueryKind::kBucket, QueryKind::kTag}) {
      const TimedValues ms = durations("DB::Search", [kind](const Span& s) {
        return s.phase == Phase::kTimed && s.kind == kind;
      });
      std::snprintf(buf, sizeof(buf),
                    "%s searches: %zu, p50 %.3f ms as measured",
                    QueryKindName(kind), ms.size(),
                    Percentile(Values(ms), 50));
      report_->notes.push_back(buf);
    }
  }
  if (full_rebuilds_ > 0) {
    report_->notes.push_back(std::to_string(full_rebuilds_.load()) +
                             " Maintain calls escalated to a full rebuild");
  }
  report_->attempted = std::max<uint64_t>(1, attempted_.load());
  report_->failed = failed_.load();
  if (config_.trace) LayerMetrics(spans);
}

void Run::LayerMetrics(const std::vector<Span>& spans) {
  auto& m = report_->per_layer;
  const bool write_in_timed = shape_.mixed;
  auto traced = [&](const Span& s, const char* name) {
    return s.traced && std::string_view(s.name) == name;
  };
  // In the traced window half of the searches carry counters ("searches"
  // averages over those); the window's IoStats totals are divided by all
  // of its searches ("window_searches").
  std::vector<double> search_ms, upsert_ms, maintain_ms, drop_ms, build_s,
      wait_us, traced_call_ms, untraced_call_ms;
  double searches = 0, window_searches = 0, sum_partitions = 0,
         sum_quantized = 0, sum_rows = 0, sum_filtered = 0,
         sum_rerank_cand = 0, sum_reranked = 0, sum_quarantined = 0,
         prefilter = 0, postfilter = 0, candidates = 0, group = 0,
         coalesced = 0, search_ns = 0, kernel_ns = 0, delta_flushed = 0,
         row_changes = 0, requantized = 0, rebuilds = 0, maintains = 0;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (name == "DB::BuildIndex") build_s.push_back(s.ms() / 1e3);
    if (name == "DB::Search" && s.phase == Phase::kTimed &&
        s.start_ns >= trace_start_ns_) {
      ++window_searches;
      if (!s.cold) {
        (s.traced ? traced_call_ms : untraced_call_ms)
            .push_back(static_cast<double>(s.call_ns) / 1e6);
        if (s.traced) search_ms.push_back(s.ms());
      }
    }
    if (traced(s, "DB::DropCaches") && s.phase != Phase::kSetup) {
      drop_ms.push_back(s.ms());
    }
    const bool write_phase =
        s.phase == (write_in_timed ? Phase::kTimed : Phase::kWrite);
    if (traced(s, "DB::Upsert") && write_phase) upsert_ms.push_back(s.ms());
    // Every Maintain call of the write phase: there are few of them, and
    // the MaintenanceReport comes back untraced too.
    if (name == "DB::Maintain" && write_phase) {
      maintain_ms.push_back(s.ms());
      ++maintains;
      delta_flushed += s.Counter("maintain.delta_flushed");
      row_changes += s.Counter("maintain.row_changes");
      requantized += s.Counter("maintain.requantized");
      rebuilds += s.Counter("maintain.full_rebuild");
    }
    if (!traced(s, "DB::Search") || s.phase != Phase::kTimed) continue;
    ++searches;
    const double partitions = s.Counter("exec.partitions_scanned");
    const double quantized = s.Counter("exec.partitions_quantized");
    const double rows = s.Counter("exec.rows_scanned");
    const double reranked = s.Counter("exec.rows_reranked");
    sum_partitions += partitions;
    sum_quantized += quantized;
    sum_rows += rows;
    sum_filtered += s.Counter("exec.rows_filtered");
    sum_rerank_cand += s.Counter("exec.rerank_candidates");
    sum_reranked += reranked;
    sum_quarantined += s.Counter("exec.partitions_quarantined");
    prefilter += s.Counter("plan.prefilter");
    postfilter += s.Counter("plan.postfilter");
    candidates += s.Counter("plan.candidates");
    group += s.Counter("sched.coalesced_group_size");
    coalesced += s.Counter("sched.coalesced_group_size") > 1 ? 1 : 0;
    wait_us.push_back(s.Counter("sched.wait_us"));
    // Kernel cost of this search at the measured per-row rates: quantized
    // partitions scan SQ8 codes, the rest and the rerank scan floats.
    const double qshare = Ratio(quantized, partitions);
    kernel_ns += rows * qshare * kernels_.sq8_ns_per_row +
                 (rows * (1 - qshare) + reranked) * kernels_.l2_ns_per_row;
    search_ns += static_cast<double>(s.end_ns - s.start_ns);
  }

  m["core.search_span_ms"] = {Percentile(search_ms, 50), "ms"};
  m["core.upsert_span_ms"] = {Percentile(upsert_ms, 50), "ms"};
  m["core.maintain_span_ms"] = {Percentile(maintain_ms, 50), "ms"};
  m["core.drop_caches_ms"] = {Percentile(drop_ms, 50), "ms"};
  m["core.build_index_s"] = {Percentile(build_s, 50), "s"};
  m["core.maintain.delta_flushed"] = {Ratio(delta_flushed, maintains), "rows"};
  m["core.maintain.row_changes"] = {Ratio(row_changes, maintains), "rows"};
  m["core.maintain.requantized"] = {requantized, "count"};
  m["core.maintain.full_rebuilds"] = {rebuilds, "count"};

  m["scheduler.wait_us_p50"] = {Percentile(wait_us, 50), "us"};
  m["scheduler.wait_us_p99"] = {Percentile(wait_us, 99), "us"};
  m["scheduler.group_size_mean"] = {Ratio(group, searches), "queries"};
  m["scheduler.coalesced_share"] = {Ratio(coalesced, searches), "ratio"};

  m["planner.prefilter_share"] = {Ratio(prefilter, searches), "ratio"};
  m["planner.postfilter_share"] = {Ratio(postfilter, searches), "ratio"};
  m["planner.candidates_per_query"] = {Ratio(candidates, prefilter), "rows"};

  m["executor.partitions_per_query"] = {Ratio(sum_partitions, searches),
                                        "count"};
  m["executor.rows_scanned_per_query"] = {Ratio(sum_rows, searches), "rows"};
  m["executor.filter_pass_ratio"] = {
      Ratio(sum_rows, sum_rows + sum_filtered), "ratio"};
  m["executor.quantized_partition_share"] = {
      Ratio(sum_quantized, sum_partitions), "ratio"};
  m["executor.rerank_candidates_per_query"] = {
      Ratio(sum_rerank_cand, searches), "rows"};
  m["executor.rows_reranked_per_query"] = {Ratio(sum_reranked, searches),
                                           "rows"};
  m["executor.rerank_yield"] = {Ratio(config_.k * searches, sum_reranked),
                                "ratio"};
  m["executor.quarantined_partitions"] = {sum_quarantined, "count"};

  m["numerics.l2_ns_per_row"] = {kernels_.l2_ns_per_row, "ns"};
  m["numerics.sq8_ns_per_row"] = {kernels_.sq8_ns_per_row, "ns"};
  m["numerics.scan_kernel_share"] = {Ratio(kernel_ns, search_ns), "ratio"};

  // Storage counters over the traced read window, per search. In mixed_rw
  // these are run totals (writer and Maintain included) per search.
  const IoStats::View r = io_read_end_ - io_trace_start_;
  const double misses = static_cast<double>(r.CacheMisses());
  const double lookups = static_cast<double>(r.pages_cache_hit) + misses;
  m["cache.lookups_per_query"] = {Ratio(lookups, window_searches),
                                  "count"};
  m["cache.hit_ratio"] = {Ratio(r.pages_cache_hit, lookups), "ratio"};
  m["cache.evictions_per_query"] = {
      Ratio(r.cache_evictions, window_searches), "count"};
  m["cache.prefetch_hit_ratio"] = {Ratio(r.prefetch_hits, r.pages_prefetched),
                                   "ratio"};
  m["pager.pages_read_main_per_query"] = {
      Ratio(r.pages_read_main, window_searches), "pages"};
  m["pager.pages_read_wal_per_query"] = {
      Ratio(r.pages_read_wal, window_searches), "pages"};
  m["pager.read_syscalls_per_query"] = {
      Ratio(r.read_syscalls, window_searches), "count"};
  m["pager.pages_per_read_syscall"] = {
      Ratio(r.pages_read_main + r.pages_read_wal, r.read_syscalls), "pages"};
  m["pager.read_joins"] = {static_cast<double>(r.read_joins), "count"};
  m["pager.io_retries"] = {static_cast<double>(r.io_retries), "count"};
  m["pager.corruptions_detected"] = {
      static_cast<double>(r.corruptions_detected), "count"};

  // Write path: the burst (read-only workloads) or the traced window
  // (mixed_rw), each through the closing checkpoint.
  const IoStats::View w =
      io_write_end_ - (write_in_timed ? io_trace_start_ : io_write_start_);
  m["wal.frames_per_commit"] = {Ratio(w.frames_written, w.commits), "frames"};
  m["wal.writes_per_commit"] = {Ratio(w.wal_writes, w.commits), "count"};
  m["wal.syncs_per_commit"] = {Ratio(w.wal_syncs, w.commits), "count"};
  m["wal.wraps"] = {static_cast<double>(w.wal_wraps), "count"};
  m["wal.checkpoint_pages"] = {static_cast<double>(w.checkpoint_pages),
                               "pages"};
  m["wal.checkpoint_pages_per_write_syscall"] = {
      Ratio(io_final_checkpoint_.checkpoint_pages,
            io_final_checkpoint_.write_syscalls),
      "pages"};

  m["mem.page_cache_mib"] = {page_cache_end_bytes_ / kMiB, "MiB"};
  m["mem.query_exec_peak_mib"] = {
      std::max(0.0, mem_peak_bytes_ - page_cache_end_bytes_) / kMiB, "MiB"};

  m["loadgen.writer_lag_ms_p99"] = {Percentile(lag_ms_, 99), "ms"};
  // Client-seen p50 of the traced searches over that of the untraced ones
  // interleaved with them.
  m["trace.overhead_ratio"] = {Ratio(Percentile(traced_call_ms, 50),
                                     Percentile(untraced_call_ms, 50)),
                               "ratio"};

  // Self time per span name over the traced timed window: where the
  // end-to-end time goes, by layer boundary.
  const std::map<uint64_t, int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> by_name;
  for (const Span& s : spans) {
    if (s.traced && s.phase == Phase::kTimed) {
      by_name[s.name] += static_cast<double>(self.at(s.id)) / 1e6;
    }
  }
  for (const auto& [name, ms] : by_name) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "self time of traced spans: %-22s %10.2f ms",
                  name.c_str(), ms);
    report_->notes.push_back(buf);
  }
  if (!config_.trace_path.empty() &&
      !WriteTrace(config_.trace_path, spans, kernels_)) {
    report_->notes.push_back("could not write " + config_.trace_path);
  }
}

bool Run::Execute() {
  std::error_code ec;
  std::filesystem::create_directories(config_.work_dir, ec);
  path_ = config_.work_dir + "/db.mnn";

  const size_t batches =
      shape_.mixed ? static_cast<size_t>(
                         std::ceil(config_.seconds * kWriterBatchesPerSec))
                   : kWriteBurstBatches;
  in_ = MakeInputs(config_, batches * WriteStream::kRowsPerBatch + 16);
  deletions_ = std::make_unique<DeletionLog>(in_.total_rows());
  stream_ = std::make_unique<WriteStream>(in_, shape_.mixed,
                                          config_.seed ^ 0x3417eULL);
  if (!shape_.mixed) {
    std::vector<Query> pool;
    for (size_t j = 0; j < std::min(kTruthQueries, config_.n_queries); ++j) {
      pool.push_back(Query{static_cast<uint32_t>(j)});
    }
    truth_ = BruteForceTruth(in_, pool, config_.k);
  }

  if (!SetUp()) return false;
  Calibrate();
  if (!shape_.sessions) ColdProbes();
  Warmup();
  if (shape_.mixed) {
    TimedMixed();
    FinalRecall();
  } else {
    TimedSingleClient();
    WriteBurst();
  }
  Finish();
  if (config_.trace) kernels_ = TimeKernels(in_);

  const DbOptions o = Options();
  auto& h = report_->header;
  h.emplace_back("workload", shape_.name);
  h.emplace_back("seed", std::to_string(config_.seed));
  h.emplace_back("n", std::to_string(config_.n));
  h.emplace_back("dim", std::to_string(config_.dim));
  h.emplace_back("k", std::to_string(config_.k));
  h.emplace_back("query_pool", std::to_string(config_.n_queries));
  h.emplace_back("partitions", std::to_string(n_partitions_));
  h.emplace_back("nprobe", std::to_string(nprobe_));
  h.emplace_back("nprobe_ladder_recall", ladder_);
  h.emplace_back("cache_bytes", std::to_string(shape_.cache_bytes));
  h.emplace_back("io_backend", micronn::IoBackendName(
                                   db_->engine()->pager()->io_backend()));
  h.emplace_back("simd", std::string(micronn::SimdLevelName(
                             micronn::ActiveSimdLevel())));
  h.emplace_back("prefetch_depth", std::to_string(o.prefetch_depth));
  h.emplace_back("async_prefetch", o.async_prefetch ? "on" : "off");
  h.emplace_back("sync_on_commit",
                 std::string(o.pager.sync_on_commit ? "on" : "off") +
                     " (the library default; auto checkpoint every " +
                     std::to_string(o.pager.auto_checkpoint_frames) +
                     " frames)");
  h.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  h.emplace_back("git", config_.git);
  h.emplace_back("clients", shape_.mixed ? "2 closed-loop readers + 1 open-loop "
                                           "writer + 1 maintainer"
                                         : "1 closed-loop reader");
  char writer[256];
  if (shape_.mixed) {
    std::snprintf(writer, sizeof(writer),
                  "open loop at %g batches/s during the window (a stress "
                  "level, not a model of served traffic)",
                  kWriterBatchesPerSec);
  } else {
    std::snprintf(writer, sizeof(writer),
                  "open loop at %g batches/s, %zu batches after the read "
                  "window (a stress level, not a model of served traffic)",
                  kWriterBatchesPerSec, kWriteBurstBatches);
  }
  h.emplace_back("writer", writer);
  std::snprintf(writer, sizeof(writer),
                "Upsert(%zu replacements + %zu new ids) then Delete(%zu ids); "
                "Maintain every %llu upserted vectors",
                kReplace, kInsert, kDelete,
                static_cast<unsigned long long>(kMaintainEveryUpserts));
  h.emplace_back("writer_batch", writer);
  std::snprintf(writer, sizeof(writer),
                "percentiles of each call's time x %.2f ms / the median "
                "speed-probe time within 0.5 s of it; qps: searches per "
                "second of search time, summed over readers; set-up as "
                "measured",
                kReferenceProbeMs);
  h.emplace_back("time_metrics", writer);

  db_->Close().ok();
  db_.reset();
  RemoveFiles();
  Metrics();
  return true;
}

}  // namespace

bool RunWorkload(const Config& config, Report* report) {
  for (const Shape& shape : kShapes) {
    if (config.workload == shape.name) {
      Run run(config, shape, report);
      return run.Execute();
    }
  }
  report->notes.push_back("unknown workload " + config.workload);
  return false;
}

}  // namespace e2ebench
