// crawl: whole CollectData runs at scale 0.04 with the default durability
// settings (checkpointing and compaction on). The crawler, its checkpoints
// and the DFS commit-append do nearly all of the work here; a fresh platform
// (synthetic world + simulated web + empty DFS) per crawl is the set-up.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "crawler/checkpoint.h"
#include "pipeline.h"
#include "trace.h"
#include "util/logging.h"

namespace cfnet::perfbench {
namespace {

constexpr double kScale = 0.04;
/// The second scale of the µs-per-request scaling ratio.
constexpr double kSmallScale = 0.01;
/// Medians need several crawls; one crawl takes most of a short window.
constexpr size_t kMinCrawls = 3;
constexpr char kGoldenKey[] = "crawl@0.04";

struct Window {
  std::vector<double> setup_s;
  std::vector<double> crawl_s;
  std::vector<double> requests_per_s;
  std::vector<double> us_per_request;
  int64_t requests = 0;
  int64_t failed_requests = 0;
  CrawlRun last;
  std::unique_ptr<core::ExploratoryPlatform> last_platform;
};

/// Crawls until `seconds` have passed and at least kMinCrawls ran; every
/// crawl's records must equal `reference`.
Window MeasureCrawls(const RunOptions& options, const Digest& reference,
                     Report* report) {
  Window w;
  const int64_t start = NowNanos();
  while (w.crawl_s.size() < kMinCrawls || SecondsSince(start) < options.seconds) {
    trace::Span unit("bench.crawl_unit", /*new_trace=*/true);
    w.last_platform.reset();  // free the previous world before the next one
    CrawlRun run;
    w.last_platform = BuildAndCrawl(
        PlatformOptions(kScale, options.seed, /*checkpointing=*/true,
                        /*compact_snapshots=*/true),
        /*compact_after=*/false, &run);
    const Digest counts = CountRecords(*w.last_platform);
    report->Check(counts == reference,
                  "records with checkpointing on differ from the reference "
                  "crawl: " + DigestString(counts) + " vs " +
                      DigestString(reference));
    report->failed += counts == reference ? 0 : 1;
    w.setup_s.push_back(run.world_s);
    w.crawl_s.push_back(run.crawl_s);
    const double requests = static_cast<double>(run.fetch.requests);
    w.requests_per_s.push_back(requests / run.crawl_s);
    w.us_per_request.push_back(run.crawl_s * 1e6 / requests);
    w.requests += run.fetch.requests;
    w.failed_requests += FailedApiRequests(run.fetch);
    w.last = run;
    ++report->attempted;
  }
  return w;
}

}  // namespace

void RunCrawlWorkload(const RunOptions& options, Report* report) {
  // Reference crawl: same world, checkpointing off, compaction called
  // explicitly. Its records are what every measured crawl must reproduce,
  // and its times attribute the checkpoint and compaction shares.
  CrawlRun ref;
  Digest reference;
  {
    trace::Span span("bench.reference_crawl", /*new_trace=*/true);
    auto platform = BuildAndCrawl(
        PlatformOptions(kScale, options.seed, /*checkpointing=*/false,
                        /*compact_snapshots=*/false),
        /*compact_after=*/true, &ref);
    reference = CountRecords(*platform);
  }
  if (options.print_golden) {
    PrintGolden(kGoldenKey, options.seed, reference);
    return;
  }
  if (!CheckGolden(options.golden_path, kGoldenKey, options.seed, reference,
                   report)) {
    std::fprintf(stderr, "[perfbench] no crawl golden for seed %llu; "
                 "checking against the reference crawl only\n",
                 static_cast<unsigned long long>(options.seed));
  }

  if (options.trace) trace::SetRecording(false);
  Window w = MeasureCrawls(options, reference, report);
  report->Set("setup_s", Median(w.setup_s), "s");
  report->Set("op_p50_ms", Median(w.crawl_s) * 1e3, "ms");
  report->Set("op_p99_ms", Percentile(w.crawl_s, 0.99) * 1e3, "ms");
  report->Set("throughput_per_s", Median(w.requests_per_s), "1/s");
  report->Set("ok_frac",
              1.0 - static_cast<double>(w.failed_requests) /
                        static_cast<double>(w.requests),
              "frac");
  std::fprintf(stderr,
               "[perfbench] crawl: %zu crawls, median %.3f s, %lld API "
               "requests in the last (%lld failed)\n",
               w.crawl_s.size(), Median(w.crawl_s),
               static_cast<long long>(w.last.fetch.requests),
               static_cast<long long>(FailedApiRequests(w.last.fetch)));
  if (!options.trace) return;

  // Traced run: the same window again with spans on, then attribution.
  trace::SetRecording(true);
  const double untraced_p50_ms = Median(w.crawl_s) * 1e3;
  {
    trace::Span window("bench.window");
    report->trace_root = window.index();
    w = MeasureCrawls(options, reference, report);
  }
  SetCrawlMetrics(w.last, report);
  const double crawl_s = Median(w.crawl_s);
  report->Set("crawler.us_per_request", Median(w.us_per_request), "us");
  report->Set("synth.world_s", Median(w.setup_s), "s");
  report->Set("trace.overhead_op_p50_ms", crawl_s * 1e3 - untraced_p50_ms,
              "ms");
  report->Set("crawler.checkpoint_share",
              1.0 - (ref.crawl_s + ref.compact_s) / crawl_s, "frac");
  report->Set("core.compact_s", ref.compact_s, "s");

  {
    // The cost of one full checkpoint of the final crawl state.
    crawler::CheckpointStore store(&w.last_platform->dfs(), "/checkpoints");
    auto state = store.LoadLatestValid();
    CFNET_CHECK(state.ok()) << state.status().ToString();
    trace::Span span("crawler.checkpoint_serialize");
    const std::string bytes = crawler::CheckpointStore::Serialize(state.value());
    report->Set("crawler.checkpoint_serialize_ms", span.End() * 1e3, "ms");
    report->Set("crawler.checkpoint_bytes", static_cast<double>(bytes.size()),
                "bytes");
  }
  w.last_platform.reset();
  CrawlRun median_crawl = w.last;
  median_crawl.crawl_s = crawl_s;
  report->Set("crawler.scaling_ratio",
              SmallCrawlScalingRatio(median_crawl, kSmallScale, options.seed,
                                     /*checkpointing=*/true,
                                     /*compact_snapshots=*/true),
              "ratio");
}

}  // namespace cfnet::perfbench
