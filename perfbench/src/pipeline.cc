#include "pipeline.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/columnar_records.h"
#include "json/json.h"
#include "trace.h"
#include "util/logging.h"

namespace cfnet::perfbench {

core::ExploratoryPlatform::Options PlatformOptions(double scale, uint64_t seed,
                                                   bool checkpointing,
                                                   bool compact_snapshots) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = scale;
  options.world.seed = seed;
  options.crawl.num_workers = kThreads;
  options.crawl.checkpointing = checkpointing;
  options.compact_snapshots = compact_snapshots;
  options.analytics_parallelism = kThreads;
  return options;
}

std::unique_ptr<core::ExploratoryPlatform> BuildAndCrawl(
    const core::ExploratoryPlatform::Options& options, bool compact_after,
    CrawlRun* run) {
  std::unique_ptr<core::ExploratoryPlatform> platform;
  {
    trace::Span span("synth.world");
    platform = std::make_unique<core::ExploratoryPlatform>(options);
    run->world_s = span.End();
  }
  run->dfs_before = platform->dfs().GetStats();
  {
    trace::Span span("core.collect_data");
    const Status s = platform->CollectData();
    run->crawl_s = span.End();
    CFNET_CHECK(s.ok()) << "crawl failed: " << s.ToString();
  }
  if (compact_after) {
    trace::Span span("core.compact_snapshots");
    const Status s = platform->CompactSnapshots();
    run->compact_s = span.End();
    CFNET_CHECK(s.ok()) << "compaction failed: " << s.ToString();
  }
  run->dfs_after = platform->dfs().GetStats();
  run->fetch = platform->crawl_report().fetch;
  run->checkpoint_writes = platform->crawl_report().checkpoint_writes;
  return platform;
}

int64_t FailedApiRequests(const crawler::FetchCounters& fetch) {
  return fetch.retries + (fetch.failures - fetch.breaker_fast_fails) +
         fetch.token_rotations + fetch.rate_limit_waits;
}

double SmallCrawlScalingRatio(const CrawlRun& big, double small_scale,
                              uint64_t seed, bool checkpointing,
                              bool compact_snapshots) {
  trace::Span span("bench.small_crawl", /*new_trace=*/true);
  CrawlRun small;
  BuildAndCrawl(PlatformOptions(small_scale, seed, checkpointing,
                                compact_snapshots),
                /*compact_after=*/false, &small);
  auto us_per_request = [](const CrawlRun& r) {
    return r.crawl_s * 1e6 / static_cast<double>(r.fetch.requests);
  };
  return us_per_request(big) / us_per_request(small);
}

void SetCrawlMetrics(const CrawlRun& run, Report* report) {
  const double requests = static_cast<double>(run.fetch.requests);
  report->Set("crawler.api_requests", requests, "count");
  report->Set("crawler.us_per_request",
              requests > 0 ? run.crawl_s * 1e6 / requests : 0, "us");
  report->Set("crawler.retries", static_cast<double>(run.fetch.retries),
              "count");
  report->Set("crawler.rate_limit_waits",
              static_cast<double>(run.fetch.rate_limit_waits), "count");
  report->Set("crawler.failures", static_cast<double>(run.fetch.failures),
              "count");
  report->Set("crawler.checkpoint_writes",
              static_cast<double>(run.checkpoint_writes), "count");
  report->Set("dfs.mutation_ops",
              static_cast<double>(run.dfs_after.mutation_ops -
                                  run.dfs_before.mutation_ops),
              "count");
  report->Set("dfs.read_ops",
              static_cast<double>(run.dfs_after.read_ops -
                                  run.dfs_before.read_ops),
              "count");
  report->Set("dfs.logical_mb",
              static_cast<double>(run.dfs_after.logical_bytes -
                                  run.dfs_before.logical_bytes) /
                  1e6,
              "MB");
  report->Set("synth.world_s", run.world_s, "s");
}

int64_t DoubleBits(double v) {
  int64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

Digest CountRecords(core::ExploratoryPlatform& platform) {
  trace::Span span("bench.count_records");
  const dfs::MiniDfs& dfs = platform.dfs();
  const crawler::Crawler& c = platform.crawler();
  ThreadPool* pool = &platform.context()->pool();
  auto count = [&](auto tag, const std::string& dir) -> int64_t {
    using T = decltype(tag);
    auto records = core::LoadSnapshotRecords<T>(dfs, dir, pool,
                                                /*salvage=*/false, nullptr);
    CFNET_CHECK(records.ok()) << records.status().ToString();
    return static_cast<int64_t>(records.value().size());
  };
  return {
      {"startups", count(core::StartupRecord{}, c.StartupSnapshotDir())},
      {"users", count(core::UserRecord{}, c.UserSnapshotDir())},
      {"crunchbase",
       count(core::CrunchBaseRecord{}, c.CrunchBaseSnapshotDir())},
      {"facebook", count(core::FacebookRecord{}, c.FacebookSnapshotDir())},
      {"twitter", count(core::TwitterRecord{}, c.TwitterSnapshotDir())},
  };
}

std::string DigestString(const Digest& d) {
  std::string out;
  for (const auto& [name, value] : d) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

bool CheckGolden(const std::string& golden_path, const std::string& key,
                 uint64_t seed, const Digest& digest, Report* report) {
  std::ifstream in(golden_path);
  if (!in) {
    report->Check(false, "golden file unreadable: " + golden_path);
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = json::Parse(buf.str());
  if (!doc.ok()) {
    report->Check(false, "golden file does not parse: " + golden_path);
    return false;
  }
  const json::Json& entry =
      doc.value().Get(key).Get(std::to_string(seed));
  if (!entry.is_object()) return false;
  Digest want;
  for (const auto& [name, value] : entry.object()) {
    want.emplace_back(name, value.AsInt());
  }
  Digest have;
  for (const auto& [name, value] : digest) {
    if (entry.Has(name)) have.emplace_back(name, value);
  }
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  report->Check(have == want, key + " outputs differ from the golden for seed " +
                                  std::to_string(seed) + ": have " +
                                  DigestString(have) + ", want " +
                                  DigestString(want));
  return true;
}

void PrintGolden(const std::string& key, uint64_t seed, const Digest& digest) {
  json::Json entry = json::Json::MakeObject();
  for (const auto& [name, value] : digest) entry.Set(name, json::Json(value));
  std::printf("{\"key\":\"%s\",\"seed\":%llu,\"digest\":%s}\n", key.c_str(),
              static_cast<unsigned long long>(seed), entry.Dump().c_str());
}

}  // namespace cfnet::perfbench
