// Shared helpers of the benchmark program: clocks, exact order statistics,
// the metric sink every workload fills, and the run options.
#ifndef CFNET_PERFBENCH_COMMON_H_
#define CFNET_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cfnet::perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when
/// empty. Every sample is kept, so the result is exact.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 20160626;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump (JSON lines); empty = do not write
  std::string golden_path;
  /// Run one unit of work and print its output digest instead of measuring
  /// (how golden.json entries are made).
  bool print_golden = false;
};

/// One workload's results: named metrics with units, the operation counts
/// the result line reports, and every output check that failed.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Span covering the traced measurement window (-1 = none).
  int64_t trace_root = -1;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check (the run then reports correct=false).
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Workload entry points (workload_*.cc). Each fills the end-to-end
/// metrics, and with `options.trace` also the per-layer ones.
void RunCrawlWorkload(const RunOptions& options, Report* report);
void RunAnalyzeWorkload(const RunOptions& options, Report* report);
void RunServeWorkload(const RunOptions& options, bool cold, Report* report);

}  // namespace cfnet::perfbench

#endif  // CFNET_PERFBENCH_COMMON_H_
