// analyze: repeated passes of the paper's analyses over one scale-0.2
// crawl. A pass loads every snapshot source, builds a fresh ExperimentSuite
// (96 CoDA communities, 50 iterations) and computes the engagement table
// and Figures 3, 4, 5 and 7. Ingest, graph, CoDA/SIMD and the figure
// kernels do all the timed work; the crawler does none (the set-up crawls
// with checkpointing off, since crawl durability is the crawl workload's).
//
// The crawled world is always the paper-seed world: pass time moves by
// about 20% from one generated world to another, which would hide any
// change smaller than that. --seed seeds the CoDA initialization.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/columnar_records.h"
#include "core/experiments.h"
#include "pipeline.h"
#include "trace.h"
#include "util/logging.h"

namespace cfnet::perfbench {
namespace {

constexpr double kScale = 0.2;
constexpr double kSmallScale = 0.01;
constexpr size_t kSetups = 3;
constexpr size_t kMinPasses = 3;
constexpr uint64_t kWorldSeed = 20160626;
/// Goldens: the crawled records and Figure 3 counts of the fixed world, and
/// the CoDA fit per --seed.
constexpr char kWorldGoldenKey[] = "analyze@0.2";
constexpr char kCodaGoldenKey[] = "analyze@0.2/coda";

struct Pass {
  double total_s = 0;
  double load_s = 0;
  double graph_s = 0;
  double filter_s = 0;
  double coda_s = 0;
  double engagement_s = 0;
  double fig3_s = 0;
  double fig4_s = 0;
  double fig5_s = 0;
  double fig7_s = 0;
  double scan_bytes = 0;
  int coda_iterations = 0;
  int64_t edges = 0;
  Digest world;  // record counts and Figure 3 counts
  Digest fit;    // CoDA communities, iterations, log-likelihood bits

  bool operator==(const Pass& o) const { return world == o.world && fit == o.fit; }
};

std::string PassString(const Pass& p) {
  return DigestString(p.world) + " " + DigestString(p.fit);
}

template <typename T>
std::vector<T> Load(const dfs::MiniDfs& dfs, const std::string& dir,
                    ThreadPool* pool, dfs::ScanReport* scan) {
  auto records = core::LoadSnapshotRecords<T>(dfs, dir, pool,
                                              /*salvage=*/false, scan);
  CFNET_CHECK(records.ok()) << records.status().ToString();
  return std::move(records).value();
}

/// One analysis pass on `ctx`'s threads (CoDA gets the same count).
Pass RunPass(core::ExploratoryPlatform& platform,
             const std::shared_ptr<dataflow::ExecutionContext>& ctx,
             uint64_t coda_seed) {
  Pass p;
  trace::Span pass("bench.analyze_pass", /*new_trace=*/true);
  const dfs::MiniDfs& dfs = platform.dfs();
  const crawler::Crawler& c = platform.crawler();
  ThreadPool* pool = &ctx->pool();
  dfs::ScanReport scan;
  core::AnalysisInputs inputs;
  {
    trace::Span span("core.load_snapshot_records");
    inputs.startups =
        Load<core::StartupRecord>(dfs, c.StartupSnapshotDir(), pool, &scan);
    inputs.users = Load<core::UserRecord>(dfs, c.UserSnapshotDir(), pool, &scan);
    inputs.crunchbase = Load<core::CrunchBaseRecord>(
        dfs, c.CrunchBaseSnapshotDir(), pool, &scan);
    inputs.facebook =
        Load<core::FacebookRecord>(dfs, c.FacebookSnapshotDir(), pool, &scan);
    inputs.twitter =
        Load<core::TwitterRecord>(dfs, c.TwitterSnapshotDir(), pool, &scan);
    p.load_s = span.End();
  }
  p.scan_bytes = static_cast<double>(scan.bytes_scanned +
                                     scan.columnar_encoded_bytes +
                                     scan.columnar_dictionary_bytes);

  community::CodaConfig coda_config;
  coda_config.num_communities = 96;
  coda_config.max_iterations = 50;
  // Run the whole iteration budget: where the fit would stop early varies
  // from world to world (35 to 50 iterations across seeds), and that would
  // swamp every per-iteration change in the pass time.
  coda_config.tolerance = 0;
  coda_config.seed = coda_seed;
  coda_config.num_threads = static_cast<int>(ctx->pool().num_threads());
  core::ExperimentSuite suite(ctx, inputs, coda_config);
  auto timed = [](const char* name, double* out, auto&& fn) {
    trace::Span span(name);
    fn();
    *out = span.End();
  };
  timed("core.investor_graph", &p.graph_s, [&] { suite.investor_graph(); });
  timed("graph.filter_left_by_min_degree", &p.filter_s,
        [&] { suite.filtered_graph(); });
  timed("community.coda_fit", &p.coda_s, [&] { suite.coda(); });
  timed("core.engagement_table", &p.engagement_s,
        [&] { suite.RunEngagementTable(); });
  core::Fig3Result fig3;
  timed("core.fig3", &p.fig3_s, [&] { fig3 = suite.RunFig3(); });
  timed("core.fig4", &p.fig4_s, [&] { suite.RunFig4(); });
  timed("core.fig5", &p.fig5_s, [&] { suite.RunFig5(); });
  timed("core.fig7", &p.fig7_s, [&] { suite.RunFig7(); });
  p.total_s = pass.End();

  const community::CodaResult& coda = suite.coda();
  p.coda_iterations = coda.iterations;
  p.edges = static_cast<int64_t>(fig3.num_edges);
  p.world = {
      {"startups", static_cast<int64_t>(inputs.startups.size())},
      {"users", static_cast<int64_t>(inputs.users.size())},
      {"crunchbase", static_cast<int64_t>(inputs.crunchbase.size())},
      {"facebook", static_cast<int64_t>(inputs.facebook.size())},
      {"twitter", static_cast<int64_t>(inputs.twitter.size())},
      {"fig3_investors", static_cast<int64_t>(fig3.num_investors)},
      {"fig3_companies", static_cast<int64_t>(fig3.num_companies)},
      {"fig3_edges", static_cast<int64_t>(fig3.num_edges)},
  };
  p.fit = {
      {"coda_communities",
       static_cast<int64_t>(coda.investor_communities.size())},
      {"coda_iterations", static_cast<int64_t>(coda.iterations)},
      {"coda_log_likelihood_bits", DoubleBits(coda.final_log_likelihood)},
  };
  return p;
}

std::vector<Pass> MeasurePasses(const RunOptions& options,
                                core::ExploratoryPlatform& platform,
                                const Pass& first, Report* report) {
  std::vector<Pass> passes;
  const int64_t start = NowNanos();
  while (passes.size() < kMinPasses || SecondsSince(start) < options.seconds) {
    passes.push_back(RunPass(platform, platform.context(), options.seed));
    const bool same = passes.back() == first;
    report->Check(same, "analysis pass differs from the first: " +
                            PassString(passes.back()) + " vs " +
                            PassString(first));
    ++report->attempted;
    report->failed += same ? 0 : 1;
  }
  return passes;
}

template <typename Field>
double MedianOf(const std::vector<Pass>& passes, Field field) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(static_cast<double>(p.*field));
  return Median(v);
}

}  // namespace

void RunAnalyzeWorkload(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<core::ExploratoryPlatform> platform;
  CrawlRun crawl;
  for (size_t i = 0; i < (options.print_golden ? 1 : kSetups); ++i) {
    trace::Span span("bench.setup", /*new_trace=*/true);
    platform.reset();
    platform = BuildAndCrawl(
        PlatformOptions(kScale, kWorldSeed, /*checkpointing=*/false,
                        /*compact_snapshots=*/false),
        /*compact_after=*/true, &crawl);
    setup_s.push_back(crawl.world_s + crawl.crawl_s + crawl.compact_s);
  }

  const Pass first = RunPass(*platform, platform->context(), options.seed);
  if (options.print_golden) {
    PrintGolden(kWorldGoldenKey, kWorldSeed, first.world);
    PrintGolden(kCodaGoldenKey, options.seed, first.fit);
    return;
  }
  CheckGolden(options.golden_path, kWorldGoldenKey, kWorldSeed, first.world,
              report);
  if (!CheckGolden(options.golden_path, kCodaGoldenKey, options.seed,
                   first.fit, report)) {
    std::fprintf(stderr, "[perfbench] no CoDA golden for seed %llu; "
                 "checking passes against each other only\n",
                 static_cast<unsigned long long>(options.seed));
  }

  if (options.trace) trace::SetRecording(false);
  std::vector<Pass> passes =
      MeasurePasses(options, *platform, first, report);
  std::vector<double> pass_s;
  for (const Pass& p : passes) pass_s.push_back(p.total_s);
  int64_t failed_passes = 0;
  for (const Pass& p : passes) failed_passes += p == first ? 0 : 1;
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("op_p50_ms", Median(pass_s) * 1e3, "ms");
  report->Set("op_p99_ms", Percentile(pass_s, 0.99) * 1e3, "ms");
  report->Set("throughput_per_s",
              static_cast<double>(first.edges) / Median(pass_s), "1/s");
  report->Set("ok_frac",
              1.0 - static_cast<double>(failed_passes) /
                        static_cast<double>(passes.size()),
              "frac");
  std::fprintf(stderr,
               "[perfbench] analyze: %zu passes, median %.3f s, %lld edges, "
               "%s\n",
               passes.size(), Median(pass_s),
               static_cast<long long>(first.edges),
               PassString(first).c_str());
  if (!options.trace) return;

  trace::SetRecording(true);
  const double untraced_p50_ms = Median(pass_s) * 1e3;
  {
    trace::Span window("bench.window");
    report->trace_root = window.index();
    passes = MeasurePasses(options, *platform, first, report);
  }
  const double pass_median = MedianOf(passes, &Pass::total_s);
  report->Set("trace.overhead_op_p50_ms", pass_median * 1e3 - untraced_p50_ms,
              "ms");
  const double load_s = MedianOf(passes, &Pass::load_s);
  const double coda_s = MedianOf(passes, &Pass::coda_s);
  const double iterations = MedianOf(passes, &Pass::coda_iterations);
  report->Set("core.load_inputs_s", load_s, "s");
  report->Set("dfs.scan_mb_per_s",
              MedianOf(passes, &Pass::scan_bytes) / load_s / 1e6, "MB/s");
  report->Set("core.investor_graph_s", MedianOf(passes, &Pass::graph_s), "s");
  report->Set("graph.filter_s", MedianOf(passes, &Pass::filter_s), "s");
  report->Set("community.coda_s", coda_s, "s");
  report->Set("community.coda_iterations", iterations, "count");
  report->Set("community.coda_ms_per_iteration", coda_s * 1e3 / iterations,
              "ms");
  report->Set("community.coda_share", coda_s / pass_median, "frac");
  report->Set("core.engagement_s", MedianOf(passes, &Pass::engagement_s),
              "s");
  report->Set("core.fig3_s", MedianOf(passes, &Pass::fig3_s), "s");
  report->Set("core.fig4_s", MedianOf(passes, &Pass::fig4_s), "s");
  report->Set("core.fig5_s", MedianOf(passes, &Pass::fig5_s), "s");
  report->Set("core.fig7_s", MedianOf(passes, &Pass::fig7_s), "s");

  // Thread scaling: one pass on a single-thread context. Any thread count
  // must give bit-identical outputs.
  auto single = std::make_shared<dataflow::ExecutionContext>(1);
  const Pass one = RunPass(*platform, single, options.seed);
  report->Check(one == first,
                "1-thread analysis pass differs from the 4-thread one: " +
                    PassString(one));
  report->Set("analyze.speedup_4t", one.total_s / pass_median, "ratio");

  SetCrawlMetrics(crawl, report);
  report->Set("core.compact_s", crawl.compact_s, "s");
  report->Set("crawler.scaling_ratio",
              SmallCrawlScalingRatio(crawl, kSmallScale, kWorldSeed,
                                     /*checkpointing=*/false,
                                     /*compact_snapshots=*/false),
              "ratio");
}

}  // namespace cfnet::perfbench
