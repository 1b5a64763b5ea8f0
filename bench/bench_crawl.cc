// Reproduces the §3 dataset-collection statistics (companies/users/profiles
// gathered, role fractions) and evaluates crawl throughput: workers and
// Twitter-token sweeps over simulated makespan — the paper's claim that
// token sharding "tackles the rate limit issue effectively".

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "crawler/crawler.h"
#include "net/social_web.h"
#include "util/string_util.h"
#include "util/table.h"

namespace cfnet::bench {
namespace {

/// Runs a fresh crawl of a small world with the given worker/token counts;
/// returns the report.
crawler::CrawlReport SweepCrawl(double scale, int workers, int machines,
                                int apps_per_machine) {
  synth::WorldConfig wc;
  wc.scale = scale;
  wc.seed = 20160626;
  synth::World world = synth::World::Generate(wc);
  net::SocialWeb web(&world);
  dfs::MiniDfs dfs;
  crawler::CrawlConfig config;
  config.num_workers = workers;
  config.num_twitter_machines = machines;
  config.twitter_apps_per_machine = apps_per_machine;
  crawler::Crawler crawler(&web, &dfs, config);
  Status s = crawler.Run();
  CFNET_CHECK(s.ok()) << s.ToString();
  return crawler.report();
}

void BM_FullCrawl(benchmark::State& state) {
  for (auto _ : state) {
    crawler::CrawlReport report =
        SweepCrawl(0.002, static_cast<int>(state.range(0)), 2, 5);
    benchmark::DoNotOptimize(report.fetch.requests);
    state.counters["requests"] =
        static_cast<double>(report.fetch.requests);
  }
}
BENCHMARK(BM_FullCrawl)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cfnet::bench

int main(int argc, char** argv) {
  using namespace cfnet;
  using namespace cfnet::bench;
  FlagParser flags(argc, argv);
  Testbed& bed = GetTestbed(flags);

  const auto& report = bed.platform->crawl_report();
  core::DatasetStatsResult stats = bed.suite->RunDatasetStats();
  const double scale = bed.scale;

  Section("§3 dataset statistics (scaled targets = paper x scale)");
  PrintComparison("AngelList companies",
                  StrFormat("%.0f", 744036 * scale),
                  WithThousandsSeparators(stats.companies));
  PrintComparison("AngelList users", StrFormat("%.0f", 1109441 * scale),
                  WithThousandsSeparators(stats.users));
  PrintComparison("CrunchBase profiles", StrFormat("%.0f", 10156 * scale),
                  WithThousandsSeparators(stats.crunchbase_profiles));
  PrintComparison("Facebook profiles", StrFormat("%.0f", 37761 * scale),
                  WithThousandsSeparators(stats.facebook_profiles));
  PrintComparison("Twitter profiles", StrFormat("%.0f", 70563 * scale),
                  WithThousandsSeparators(stats.twitter_profiles));
  PrintComparison("investors", "4.3%",
                  StrFormat("%.1f%%", stats.investor_pct));
  PrintComparison("founders", "18.3%", StrFormat("%.1f%%", stats.founder_pct));
  PrintComparison("prospective employees", "44.2%",
                  StrFormat("%.1f%%", stats.employee_pct));

  Section("crawl pipeline report");
  std::printf(
      "  %s API requests (%s retries, %s rate-limit waits, %s token "
      "rotations)\n",
      WithThousandsSeparators(report.fetch.requests).c_str(),
      WithThousandsSeparators(report.fetch.retries).c_str(),
      WithThousandsSeparators(report.fetch.rate_limit_waits).c_str(),
      WithThousandsSeparators(report.fetch.token_rotations).c_str());
  std::printf("  BFS rounds: %lld; CrunchBase matches: %lld by URL, %lld by "
              "unique-name search, %lld ambiguous skipped, %lld backlink "
              "mismatches rejected\n",
              static_cast<long long>(report.bfs_rounds),
              static_cast<long long>(report.crunchbase_matched_by_url),
              static_cast<long long>(report.crunchbase_matched_by_search),
              static_cast<long long>(report.crunchbase_ambiguous_skipped),
              static_cast<long long>(report.crunchbase_backlink_mismatches));
  std::printf("  simulated makespan: %.1f min; wall time: %.2f s; simulated "
              "throughput: %.1f req/s\n",
              static_cast<double>(report.makespan_micros) / 60e6,
              report.wall_seconds,
              report.makespan_micros > 0
                  ? 1e6 * static_cast<double>(report.fetch.requests) /
                        static_cast<double>(report.makespan_micros)
                  : 0.0);

  Section("worker sweep (simulated makespan, smaller world)");
  {
    AsciiTable table({"workers", "requests", "simulated makespan (min)",
                      "wall (s)", "speedup"});
    double base = 0;
    for (int workers : {1, 2, 4, 8, 16}) {
      crawler::CrawlReport r = SweepCrawl(0.01, workers, 2, 5);
      double mins = static_cast<double>(r.makespan_micros) / 60e6;
      if (workers == 1) base = mins;
      table.AddRow({std::to_string(workers),
                    WithThousandsSeparators(r.fetch.requests),
                    StrFormat("%.1f", mins), StrFormat("%.2f", r.wall_seconds),
                    StrFormat("%.1fx", base / mins)});
    }
    std::printf("%s", table.Render().c_str());
  }

  Section("Twitter token sweep (rate-limit handling, paper §3)");
  {
    AsciiTable table({"tokens", "rate-limit waits", "token rotations",
                      "simulated makespan (min)"});
    struct Setup {
      int machines;
      int apps;
    } setups[] = {{1, 1}, {1, 2}, {1, 5}, {2, 5}, {4, 5}};
    for (const auto& setup : setups) {
      crawler::CrawlReport r = SweepCrawl(0.01, 8, setup.machines, setup.apps);
      table.AddRow({std::to_string(setup.machines * setup.apps),
                    WithThousandsSeparators(r.fetch.rate_limit_waits),
                    WithThousandsSeparators(r.fetch.token_rotations),
                    StrFormat("%.1f",
                              static_cast<double>(r.makespan_micros) / 60e6)});
    }
    std::printf("%s", table.Render().c_str());
  }

  RunBenchmarks(argc, argv);
  return 0;
}
