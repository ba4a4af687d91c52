// e2ebench command line:
//
//   e2ebench --workload <warm_fit|session_small|mixed_rw> --seed <n>
//            --seconds <s> --trace <0|1> --work-dir <dir>
//            [--trace-out <file>] [--n <rows>] [--git <rev>]
//
// Prints a header, every metric by name with its unit, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exits 1 when any answer or operation failed validation, 2 on bad
// arguments, 3 when the workload could not be set up.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using e2ebench::Metric;

void PrintTable(const char* title, const std::map<std::string, Metric>& rows) {
  std::printf("\n%s\n", title);
  for (const auto& [name, m] : rows) {
    std::printf("  %-42s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintJson(bool correct, const e2ebench::Report& r,
               const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<warm_fit|session_small|mixed_rw> --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] [--n ROWS] "
               "[--git REV]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value != "0";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else if (flag == "--n") {
      config.n = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--git") {
      config.git = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty() || config.work_dir.empty()) {
    return Usage("--workload and --work-dir are required");
  }
  if (!(config.seconds > 0) || config.n < 1000) {
    return Usage("need --seconds > 0 and --n >= 1000");
  }

  e2ebench::Report report;
  const bool ran = e2ebench::RunWorkload(config, &report);
  std::printf("# e2ebench\n");
  for (const auto& [key, value] : report.header) {
    std::printf("%-22s %s\n", (key + ":").c_str(), value.c_str());
  }
  for (const std::string& note : report.notes) std::printf("note: %s\n", note.c_str());
  if (!ran) {
    std::fprintf(stderr, "e2ebench: workload %s could not be set up\n",
                 config.workload.c_str());
    return 3;
  }
  PrintTable("end-to-end", report.end_to_end);
  for (const auto& [name, m] : report.tails) {
    std::printf("  %-42s %14.6g %s (not in the result line)\n", name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("  %-42s %14.6g %s\n", "op_error_ratio",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "ratio");
  if (config.trace) PrintTable("per-layer (traced half)", report.per_layer);
  for (const std::string& v : report.violations) {
    std::printf("violation: %s\n", v.c_str());
  }
  const bool correct = report.failed == 0;
  PrintJson(correct, report,
            config.trace ? report.per_layer : report.end_to_end);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
