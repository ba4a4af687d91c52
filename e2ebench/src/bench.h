// e2ebench: one end-to-end benchmark of MicroNN with a per-layer breakdown.
//
// Three seeded workloads run through the public DB API in one process
// (warm_fit, session_small, mixed_rw; see workloads.cc and BENCHMARK.json
// for why each exists). Every public call is timed as a span; in a traced
// run each span also carries the deltas of the layer counters the library
// exposes (IoStats, QueryExplain, SchedulerStats, MaintenanceReport,
// MemoryTracker), and the spans are written out at the end of the run.
#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/db.h"
#include "datagen/dataset.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;
/// (time ns, value) samples.
using TimedValues = std::vector<std::pair<int64_t, double>>;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 6;
  bool trace = false;
  size_t n = 50000;         // loaded rows (SIFT stand-in: dim 128, L2)
  size_t n_queries = 2000;  // held-out query pool
  uint32_t dim = 128;
  uint32_t k = 100;
  std::string work_dir;    // database files live here
  std::string trace_path;  // traced runs write their spans here
  std::string git = "unknown";
};

// ---------------------------------------------------------------------------
// Generated inputs (data.cc)

enum class QueryKind : uint8_t { kUnfiltered, kBucket, kTag };
const char* QueryKindName(QueryKind kind);

/// One query of a workload: a pool vector plus an optional filter.
struct Query {
  uint32_t index = 0;  // into the query pool
  QueryKind kind = QueryKind::kUnfiltered;
  uint32_t value = 0;  // bucket id or tag rank
};

/// Everything the program is given, derived from the seed alone. Row r has
/// asset id "a<r>"; rows [0, n_loaded) are loaded at set-up and rows past
/// that form the writer's pool of fresh vectors. Attributes are a pure
/// function of the row, so a replacement keeps them and a concurrent
/// reader can check any returned row against them without racing.
struct Inputs {
  micronn::Dataset ds;
  size_t n_loaded = 0;
  std::vector<uint8_t> bucket;       // per row, 4 values (~25% each)
  std::vector<uint16_t> tag;         // per row, Zipf rank
  std::vector<uint16_t> rare_tags;   // query tags of selectivity 0.4%..1%
  std::vector<uint32_t> tag_count;   // loaded rows per tag rank
  uint32_t bucket_count[4] = {0, 0, 0, 0};

  uint32_t dim() const { return ds.spec.dim; }
  size_t total_rows() const { return ds.spec.n; }
  const float* row(size_t r) const { return ds.row(r); }
  const float* query(size_t q) const { return ds.query(q); }
  bool Matches(const Query& q, size_t r) const;
  /// Loaded rows matching the query's filter.
  size_t LoadedMatches(const Query& q) const;
  micronn::SearchRequest Request(const Query& q, uint32_t k,
                                 uint32_t nprobe) const;
  micronn::UpsertRequest Upsert(size_t asset_row, size_t vector_row,
                                bool with_attributes) const;
};

Inputs MakeInputs(const Config& config, size_t spare_rows);
std::string AssetId(size_t row);
bool ParseAssetId(const std::string& id, size_t* row);

/// Exact top-k rows among the loaded rows matching each query, by
/// brute force over the generator's own vectors.
std::vector<std::vector<uint32_t>> BruteForceTruth(
    const Inputs& in, const std::vector<Query>& queries, uint32_t k);

/// |answer ∩ truth| / |truth| over asset rows.
double Recall(const micronn::SearchResponse& answer,
              const std::vector<uint32_t>& truth);

/// When each row was deleted (steady-clock ns since the run origin, 0 =
/// never). Written by the writer after a Delete is acknowledged, read by
/// readers validating answers.
class DeletionLog {
 public:
  explicit DeletionLog(size_t rows);
  void MarkDeleted(size_t row, int64_t ack_ns);
  int64_t DeletedAt(size_t row) const {
    return at_[row].load(std::memory_order_acquire);
  }
  uint64_t total() const { return total_.load(std::memory_order_acquire); }

 private:
  size_t rows_;
  std::unique_ptr<std::atomic<int64_t>[]> at_;
  std::atomic<uint64_t> total_{0};
};

/// Checks one answer: at most k items, exactly k unless the filter has
/// fewer live matches (or the plan was post-filter, which only sees the
/// probed partitions), non-decreasing distances, no duplicate vids, every
/// row satisfies the filter, no row deleted before the search started.
/// Returns "" when valid, else the first violation.
std::string ValidateAnswer(const Inputs& in, const Query& q, uint32_t k,
                           const micronn::SearchResponse& answer,
                           const DeletionLog* deletions, int64_t started_ns);

// ---------------------------------------------------------------------------
// Spans (trace.cc)

enum class Phase : uint8_t {
  kSetup,      // Open + load + BuildIndex + AnalyzeStats
  kCalibrate,  // nprobe ladder
  kCold,       // DropCaches + one search, before the timed phase
  kWarmup,
  kTimed,      // the measured window
  kWrite,      // the write burst that closes the read-only workloads
  kRecall,     // final-snapshot recall pass (mixed_rw)
};
const char* PhaseName(Phase phase);

/// Named counter deltas attached to a traced span.
using Counters = std::vector<std::pair<const char*, double>>;

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // shared by all spans of one public call
  uint32_t thread = 0;
  Phase phase = Phase::kSetup;
  bool traced = false;
  bool cold = false;  // first search after DropCaches
  QueryKind kind = QueryKind::kUnfiltered;
  int64_t start_ns = 0;  // around the DB call alone, without the probes
  int64_t end_ns = 0;
  int64_t call_ns = 0;  // searches: client-seen time, tracing work included
  Counters counters;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  double Counter(const char* key) const;
};

/// Collects spans from any number of threads, each appending to its own
/// buffer; Collect() merges them once the threads are joined.
class Recorder {
 public:
  explicit Recorder(bool trace);

  int64_t Now() const;
  void SleepUntil(int64_t ns) const;
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  std::vector<Span>* NewBuffer();
  std::vector<Span> Collect() const;

  /// Whether calls made now carry counter deltas.
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  void set_tracing(bool on) {
    tracing_.store(on && trace_, std::memory_order_relaxed);
  }

 private:
  const bool trace_;
  const Clock::time_point origin_;
  std::atomic<bool> tracing_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Counter snapshot taken around a traced call.
struct Probe {
  micronn::IoStats::View io;
  double page_cache_bytes = 0;
  double query_exec_bytes = 0;
};
Probe TakeProbe(micronn::DB* db);
/// Appends the non-zero IoStats / MemoryTracker deltas between two probes.
void AddProbeDelta(const Probe& before, const Probe& after, Counters* out);

/// One thread's handle on the DB: times every public call as a span, and
/// in traced mode attaches counter deltas. While tracing, a coin flip on
/// the span id leaves half of the searches untraced, made exactly as in an
/// untraced run, so the two kinds interleave under the same conditions and
/// their client-seen times give the tracing overhead.
class Client {
 public:
  Client(micronn::DB* db, Recorder* recorder, uint32_t thread);

  /// DB::Open; on success the client drives the new database.
  micronn::Result<std::unique_ptr<micronn::DB>> Open(
      const std::string& path, const micronn::DbOptions& options,
      Phase phase);
  micronn::Result<micronn::SearchResponse> Search(
      const micronn::SearchRequest& request, Phase phase, QueryKind kind,
      bool cold, int64_t* started_ns);
  micronn::Status Upsert(const std::vector<micronn::UpsertRequest>& batch,
                         Phase phase);
  micronn::Status Delete(const std::vector<std::string>& ids, Phase phase);
  micronn::Result<micronn::MaintenanceReport> Maintain(Phase phase);
  void DropCaches(Phase phase);
  micronn::Status BuildIndex(Phase phase);
  micronn::Status AnalyzeStats(Phase phase);
  micronn::Status Checkpoint(Phase phase);

 private:
  /// `sampled`: trace about half of the calls, by a coin flip on the id.
  Span& Begin(const char* name, Phase phase, Probe* before,
              bool sampled = false);
  void End(Span& span, const Probe& before);
  /// Attaches a traced search's QueryExplain fields, and its scheduler wait
  /// as a child span, to the span at `at` in this client's buffer.
  void AddExplain(size_t at, const micronn::QueryExplain& e);

  micronn::DB* db_;
  Recorder* recorder_;
  uint32_t thread_;
  std::vector<Span>* buffer_;
};

/// Per-span self time: duration minus the time its child spans cover.
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Timed direct calls into the public numerics kernels at the workload's
/// dimension (ns per row).
struct KernelTimings {
  double l2_ns_per_row = 0;
  double sq8_ns_per_row = 0;
};
KernelTimings TimeKernels(const Inputs& in);

/// Writes spans, their self times and the kernel timings as one JSON file.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const KernelTimings& kernels);

// ---------------------------------------------------------------------------
// Host speed (speed.cc)

/// Fixed work the benchmark times on a workload's own threads, between that
/// thread's calls: hash-table lookups and float arithmetic, about half each,
/// the kinds of work a search spends its time on. The cores of a shared host
/// run faster or slower by up to a third over seconds to minutes, as other
/// tenants come and go; the probe slows with them, so each time metric is
/// reported at one reference speed: scaled by kReferenceProbeMs over the
/// median probe time around the moment it was measured (SpeedLog).
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs the fixed work once; returns its time in ms. Thread-safe.
  double Run() const;

 private:
  std::unordered_map<uint64_t, uint32_t> table_;
  std::vector<uint64_t> keys_;
  std::vector<float> block_;
  mutable std::atomic<size_t> next_key_{0};
  mutable std::atomic<uint64_t> sink_{0};  // keeps the work observable
};

/// The reference speed: the one at which SpeedProbe::Run() takes this long.
constexpr double kReferenceProbeMs = 0.8;

/// The probe times of one run; Add() from any thread.
class SpeedLog {
 public:
  void Add(int64_t t_ns, double probe_ms);
  /// Median probe time in [from_ns, to_ns] (of the whole run when that
  /// interval holds fewer than 3 probes).
  double MedianProbeMs(int64_t from_ns, int64_t to_ns) const;
  /// What a time measured in [from_ns, to_ns] is multiplied by to put it
  /// at the reference speed: kReferenceProbeMs / MedianProbeMs().
  double Scale(int64_t from_ns, int64_t to_ns) const;
  /// Scale() over the 0.5 s either side of `t_ns`.
  double ScaleAt(int64_t t_ns) const;

 private:
  mutable std::mutex mutex_;
  TimedValues probes_;  // (t_ns, probe ms)
};

// ---------------------------------------------------------------------------
// Results (main.cc prints them)

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// The p99s: printed beside the end-to-end metrics but left out of the
  /// result line, since no bound holds them from run to run on a shared
  /// host (checkpoint stalls set upsert_p99_ms).
  std::map<std::string, Metric> tails;
  /// Header lines and notes, printed before the tables.
  std::vector<std::pair<std::string, std::string>> header;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  // first few, for the log
};

/// Runs one workload; fills `report`. Returns false on a set-up failure.
bool RunWorkload(const Config& config, Report* report);

// Small statistics helpers.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

std::vector<double> Values(const TimedValues& samples);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
