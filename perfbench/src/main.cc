// cfnet end-to-end benchmark program. Runs one workload and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ones (each workload
// sets the per-layer metrics of the calls it makes). Progress and failed
// checks go to stderr.
//
//   cfnet_perfbench --workload crawl|analyze|serve_hot|serve_cold
//                   --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--golden FILE] [--print-golden]
//   cfnet_perfbench --machine
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/resource.h>

#include "bench/bench_util.h"
#include "common.h"
#include "trace.h"

namespace cfnet::perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(values.size())) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: cfnet_perfbench --workload "
               "crawl|analyze|serve_hot|serve_cold --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--golden FILE] "
               "[--print-golden]\n",
               error.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const std::string& text) {
  size_t used = 0;
  double v = 0;
  try {
    v = std::stod(text, &used);
  } catch (...) {
    used = 0;
  }
  if (used != text.size() || text.empty()) {
    Usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-golden") {
      o.print_golden = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      const double seed = ParseNumber(flag, value);
      if (seed < 0 || seed != static_cast<double>(static_cast<uint64_t>(seed))) {
        Usage("--seed must be a non-negative integer");
      }
      o.seed = static_cast<uint64_t>(seed);
    } else if (flag == "--seconds") {
      o.seconds = ParseNumber(flag, value);
      if (!(o.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--golden") {
      o.golden_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.workload != "crawl" && o.workload != "analyze" &&
      o.workload != "serve_hot" && o.workload != "serve_cold") {
    Usage("unknown workload '" + o.workload + "'");
  }
  return o;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--machine") {
    std::printf("%s\n", bench::MachineInfoJson().Dump().c_str());
    return 0;
  }
  const RunOptions options = ParseArgs(argc, argv);
  std::fprintf(stderr, "[perfbench] %s seed=%llu seconds=%g trace=%d machine=%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0, bench::MachineInfoJson().Dump().c_str());
  if (options.trace) trace::Enable(1 << 19);

  Report report;
  if (options.workload == "crawl") {
    RunCrawlWorkload(options, &report);
  } else if (options.workload == "analyze") {
    RunAnalyzeWorkload(options, &report);
  } else {
    RunServeWorkload(options, options.workload == "serve_cold", &report);
  }
  if (options.print_golden) return 0;

  if (options.trace) {
    const trace::Summary summary =
        trace::Finish(options.trace_out, report.trace_root);
    report.Set("trace.spans", static_cast<double>(summary.spans), "count");
    report.Set("trace.dropped_spans", static_cast<double>(summary.dropped),
               "count");
    report.Set("trace.unattributed_frac",
               summary.root_s > 0
                   ? summary.root_unattributed_s / summary.root_s
                   : 0,
               "frac");
    // Per-layer output only: drop the end-to-end numbers of the untraced
    // window (the overhead metric already compares the two windows).
    for (const char* name :
         {"setup_s", "op_p50_ms", "op_p99_ms", "throughput_per_s", "ok_frac"}) {
      report.metrics.erase(name);
    }
  } else {
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  }

  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", failure.c_str());
  }
  std::string metrics;
  for (const auto& [name, m] : report.metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" +
               m.unit + "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              report.check_failures.empty() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace cfnet::perfbench

int main(int argc, char** argv) { return cfnet::perfbench::Main(argc, argv); }
