#ifndef CFNET_CORE_PLATFORM_H_
#define CFNET_CORE_PLATFORM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crawler/crawler.h"
#include "core/epoch_maintainer.h"
#include "core/records.h"
#include "dataflow/context.h"
#include "dataflow/dataset.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "net/social_web.h"
#include "synth/world.h"
#include "util/result.h"

namespace cfnet::core {

/// Every typed snapshot, loaded and parsed — the input to all analyses.
struct AnalysisInputs {
  std::vector<StartupRecord> startups;
  std::vector<UserRecord> users;
  std::vector<CrunchBaseRecord> crunchbase;
  std::vector<FacebookRecord> facebook;
  std::vector<TwitterRecord> twitter;
};

/// The paper's "extensible exploratory platform" (Figure 2), end to end:
/// a synthetic ground-truth world behind simulated Web APIs, parallel
/// crawlers writing JSON snapshots into MiniDFS, and a MiniSpark execution
/// context the analyses run on.
///
/// Typical use:
///   ExploratoryPlatform::Options opts;
///   opts.world.scale = 0.05;
///   ExploratoryPlatform platform(opts);
///   CFNET_CHECK(platform.CollectData().ok());
///   auto inputs = platform.LoadInputs();
class ExploratoryPlatform {
 public:
  struct Options {
    synth::WorldConfig world;
    crawler::CrawlConfig crawl;
    dfs::DfsConfig dfs;
    /// Worker threads for the analytics engine (0 = hardware default).
    size_t analytics_parallelism = 0;
    /// Compact JSON snapshots into columnar (.cfc) files after each crawl
    /// flush, and prefer them on load (see core/columnar_records.h). JSON
    /// shards stay in place as the write/replay boundary and the fallback
    /// when a columnar file is stale or damaged.
    bool compact_snapshots = true;
    /// Fires after every successful crawl/replay flush (post compaction when
    /// `compact_snapshots` is on) with a monotonically increasing epoch
    /// number. The serving tier hooks this to rebuild and hot-swap its
    /// query snapshot; see src/serve. Runs on the crawler's flush thread —
    /// keep it cheap or hand the work off.
    std::function<void(uint64_t epoch)> epoch_published_hook;
    /// Policy of the EpochMaintainer behind AdvanceEpoch().
    EpochMaintainer::Config epoch_config;
  };

  /// What one AdvanceEpoch() round did.
  struct EpochAdvanceReport {
    uint64_t epoch = 0;            // epoch number published by this round
    bool full_rebuild = false;     // baseline build (first round or reset)
    bool watermark_reset = false;  // shard truncation detected -> rescan
    size_t files_scanned = 0;
    size_t records_parsed = 0;
    size_t delta_edges_emitted = 0;  // raw add-deltas extracted this round
    EpochBuildReport build;
  };

  explicit ExploratoryPlatform(const Options& options);

  ExploratoryPlatform(const ExploratoryPlatform&) = delete;
  ExploratoryPlatform& operator=(const ExploratoryPlatform&) = delete;

  /// Runs the full crawl pipeline (AngelList BFS + CrunchBase/Facebook/
  /// Twitter augmentation), writing snapshots into the DFS.
  Status CollectData();

  /// Parses every snapshot into typed records (parallel, via the dataflow
  /// engine). Requires CollectData() first. Cached after the first call.
  Result<AnalysisInputs> LoadInputs();

  /// Compacts every snapshot directory's JSON shards into columnar files
  /// (no-op for up-to-date directories). Runs automatically after each
  /// crawl flush when `compact_snapshots` is on; exposed for tests and for
  /// re-compacting after out-of-band snapshot edits.
  Status CompactSnapshots();

  const synth::World& world() const { return *world_; }
  net::SocialWeb& web() { return *web_; }
  dfs::MiniDfs& dfs() { return *dfs_; }
  crawler::Crawler& crawler() { return *crawler_; }
  const crawler::CrawlReport& crawl_report() const {
    return crawler_->report();
  }
  /// Aggregate scan accounting across every LoadInputs call: files and bytes
  /// scanned, plus the columnar counters.
  const dfs::ScanReport& scan_report() const { return scan_report_; }
  std::shared_ptr<dataflow::ExecutionContext> context() { return ctx_; }
  /// Number of snapshot epochs published so far (flush count).
  uint64_t snapshot_epoch() const {
    return snapshot_epoch_.load(std::memory_order_acquire);
  }

  /// Incremental epoch production: scans the user/CrunchBase snapshot
  /// shards past their per-file watermarks (committed payload bytes already
  /// consumed), extracts the new investment edges as a delta batch, and
  /// advances the EpochMaintainer — a full baseline build on the first
  /// round (or after a watermark regression, i.e. a shard shrank under a
  /// resume rollback), the delta path afterwards. Publishes a snapshot
  /// epoch and fires `epoch_published_hook`. Thread-safe.
  Result<EpochAdvanceReport> AdvanceEpoch();

  /// The maintainer behind AdvanceEpoch (nullptr before the first call).
  /// The returned artifacts stay valid until the next AdvanceEpoch().
  const EpochMaintainer* epoch_maintainer() const {
    return epoch_maintainer_.get();
  }
  /// Report of the last AdvanceEpoch() round.
  const EpochAdvanceReport& last_epoch_report() const {
    return last_epoch_report_;
  }

 private:
  Options options_;
  std::unique_ptr<synth::World> world_;
  std::unique_ptr<net::SocialWeb> web_;
  std::unique_ptr<dfs::MiniDfs> dfs_;
  std::unique_ptr<crawler::Crawler> crawler_;
  std::shared_ptr<dataflow::ExecutionContext> ctx_;
  bool collected_ = false;
  std::atomic<uint64_t> snapshot_epoch_{0};
  std::unique_ptr<AnalysisInputs> cached_inputs_;
  dfs::ScanReport scan_report_;

  /// Incremental-epoch state, guarded by epoch_mu_ (AdvanceEpoch is
  /// callable from any thread).
  std::mutex epoch_mu_;
  std::unique_ptr<EpochMaintainer> epoch_maintainer_;
  /// Committed payload bytes of each JSON shard already turned into
  /// deltas; a shard whose payload shrank below its watermark signals a
  /// rollback and forces a full rescan.
  std::map<std::string, uint64_t> epoch_watermarks_;
  EpochAdvanceReport last_epoch_report_;
};

}  // namespace cfnet::core

#endif  // CFNET_CORE_PLATFORM_H_
