// Host-speed probe and the log that scales time metrics with it.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/rng.h"

namespace e2ebench {

namespace {

// Sized so that one Run() takes about kReferenceProbeMs on a 4 vCPU Xeon
// (Sapphire Rapids class) KVM guest at its usual speed, about half of it in
// each kind of work. The table (~20 MiB) is larger than that host's L2
// cache, so lookups wait on memory part of the time, as a search does.
constexpr size_t kTableEntries = size_t{1} << 19;
constexpr size_t kLookups = 3000;
constexpr size_t kBlockFloats = 16 * 1024;  // 64 KiB
constexpr size_t kBlockPasses = 20;

// A time measured at t is scaled by the probes within kNearNs of t; with
// fewer than kMinProbes there, by those of the whole run.
constexpr int64_t kNearNs = 500'000'000;
constexpr size_t kMinProbes = 3;

}  // namespace

SpeedProbe::SpeedProbe() {
  micronn::Rng rng(0x5eed5eedULL);
  keys_.reserve(kTableEntries);
  for (size_t i = 0; i < kTableEntries; ++i) {
    const uint64_t key = rng.Next();
    table_.emplace(key, static_cast<uint32_t>(i));
    keys_.push_back(key);
  }
  for (size_t i = keys_.size() - 1; i > 0; --i) {
    std::swap(keys_[i], keys_[rng.Uniform(i + 1)]);
  }
  block_.resize(kBlockFloats);
  for (float& f : block_) f = static_cast<float>(rng.Uniform(1000)) / 1000.0f;
}

double SpeedProbe::Run() const {
  const Clock::time_point start = Clock::now();
  uint64_t sum = 0;
  // Each run looks up the next keys in shuffled order, so its lookups find
  // the table as cold as the runs between a workload's calls leave it.
  const size_t first = next_key_.fetch_add(kLookups, std::memory_order_relaxed);
  for (size_t i = 0; i < kLookups; ++i) {
    const auto it = table_.find(keys_[(first + i) % keys_.size()]);
    sum += it == table_.end() ? 0 : it->second;
  }
  float acc = 0;
  for (size_t p = 0; p < kBlockPasses; ++p) {
    float s = 0;
    for (size_t i = 0; i < kBlockFloats; ++i) {
      const float d = block_[i] - block_[(i + p + 1) % kBlockFloats];
      s += d * d;
    }
    acc += s;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  sink_.fetch_add(sum + static_cast<uint64_t>(acc), std::memory_order_relaxed);
  return ms;
}

void SpeedLog::Add(int64_t t_ns, double probe_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  probes_.emplace_back(t_ns, probe_ms);
}

double SpeedLog::MedianProbeMs(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> in, all;
  for (const auto& [t, ms] : probes_) {
    if (t >= from_ns && t <= to_ns) in.push_back(ms);
    all.push_back(ms);
  }
  return Percentile(in.size() >= kMinProbes ? in : all, 50);
}

double SpeedLog::Scale(int64_t from_ns, int64_t to_ns) const {
  const double ms = MedianProbeMs(from_ns, to_ns);
  return ms > 0 ? kReferenceProbeMs / ms : 1.0;
}

double SpeedLog::ScaleAt(int64_t t_ns) const {
  return Scale(t_ns - kNearNs, t_ns + kNearNs);
}

}  // namespace e2ebench
