// What one benchmark process measured, and the raw JSON it hands to
// run.py. The process records samples; run.py turns them into the
// reported medians and percentiles (perfbench/stats.py).

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// p99 is reported only with at least ten samples beyond it, so every
/// latency series a workload reports holds at least this many samples.
inline constexpr size_t kMinTailSamples = 1000;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;  ///< Chrome trace path; set = the traced run
  int threads = 1;        ///< nproc
};

struct RunResult {
  long long attempted = 0;  ///< operations: event runs, tenants, queries
  long long failed = 0;     ///< failed or wrong-output operations
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<double> setup_s;      ///< one per set-up repetition
  /// Sample series by name, e.g. per-round rates or per-commit gaps.
  std::map<std::string, std::vector<double>> series;
  /// Single values by name (accuracies, counters).
  std::map<std::string, double> values;

  /// Counts one operation; records `error` when it did not succeed.
  void Attempt(bool ok, const std::string& error);
  void Add(const std::string& name, double value) {
    series[name].push_back(value);
  }
};

/// Writes `result` plus the build's provenance as one JSON line.
void WriteRawJson(std::FILE* out, const RunOptions& options,
                  const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
