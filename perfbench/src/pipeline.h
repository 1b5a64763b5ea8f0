// Pipeline steps shared by the workloads: building a platform and crawling
// it, counting the records a crawl wrote, output digests and their goldens,
// and the crawler/DFS metrics every workload reports for its own crawl.
#ifndef CFNET_PERFBENCH_PIPELINE_H_
#define CFNET_PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/platform.h"
#include "crawler/fetch.h"
#include "dfs/dfs.h"

namespace cfnet::perfbench {

/// Thread budget of the 4-vCPU bench host: crawl workers and analytics
/// threads. The CrawlConfig default of 8 workers oversubscribes it.
inline constexpr int kThreads = 4;

core::ExploratoryPlatform::Options PlatformOptions(double scale, uint64_t seed,
                                                   bool checkpointing,
                                                   bool compact_snapshots);

/// What one platform build + crawl cost and did.
struct CrawlRun {
  double world_s = 0;    // ExploratoryPlatform construction (synth world)
  double crawl_s = 0;    // CollectData
  double compact_s = 0;  // explicit CompactSnapshots (0 when it ran inside)
  crawler::FetchCounters fetch;
  int64_t checkpoint_writes = 0;
  dfs::DfsStats dfs_before;
  dfs::DfsStats dfs_after;
};

/// Builds a platform and runs CollectData; with `compact_after`, calls
/// CompactSnapshots explicitly (for options with compact_snapshots off).
/// Fails the process on a crawl error: every workload needs its crawl.
std::unique_ptr<core::ExploratoryPlatform> BuildAndCrawl(
    const core::ExploratoryPlatform::Options& options, bool compact_after,
    CrawlRun* run);

/// API requests answered with an error: 503s and malformed bodies (retried
/// or final) plus 429 rate-limit refusals. Breaker fast-fails never reach
/// the service and are not requests.
int64_t FailedApiRequests(const crawler::FetchCounters& fetch);

/// µs per API request of `big` over that of a fresh crawl at `small_scale`
/// with the same durability settings: 1 when crawl cost is linear in size.
double SmallCrawlScalingRatio(const CrawlRun& big, double small_scale,
                              uint64_t seed, bool checkpointing,
                              bool compact_snapshots);

/// Sets the crawler.*, dfs.* and synth.* per-layer metrics of `run`.
void SetCrawlMetrics(const CrawlRun& run, Report* report);

/// Ordered (name, value) pairs that identify a run's outputs; doubles are
/// stored as their bit patterns so equality is bit equality.
using Digest = std::vector<std::pair<std::string, int64_t>>;

int64_t DoubleBits(double v);

/// Records per snapshot source, as written to the DFS.
Digest CountRecords(core::ExploratoryPlatform& platform);

/// "name=value ..." for messages.
std::string DigestString(const Digest& d);

/// Compares `digest` with the golden stored for (`key`, seed) in the golden
/// file, when the file has one; records a failed check on mismatch.
/// Returns whether a golden was found.
bool CheckGolden(const std::string& golden_path, const std::string& key,
                 uint64_t seed, const Digest& digest, Report* report);

/// Prints the one-line golden entry for (`key`, seed).
void PrintGolden(const std::string& key, uint64_t seed, const Digest& digest);

}  // namespace cfnet::perfbench

#endif  // CFNET_PERFBENCH_PIPELINE_H_
