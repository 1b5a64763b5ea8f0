#include "core/platform.h"

#include <string_view>
#include <utility>

#include "core/columnar_records.h"
#include "dfs/commit.h"
#include "dfs/jsonl.h"
#include "json/reader.h"
#include "util/logging.h"

namespace cfnet::core {
namespace {

/// Mirrors investor_graph.cc's PackEdge truncation so the incremental edge
/// stream matches BuildInvestorGraph bit for bit.
constexpr uint64_t kEdgeIdMask = 0xffffffffull;

/// Decodes every JSON line of `payload` as a Record and feeds it to `fn`.
/// `payload` is the slice past the shard's watermark; CommitAppend writes
/// whole lines, so watermarks always land on line boundaries.
template <typename Record, typename RecordFn>
Status ParseNewLines(std::string_view payload, size_t* records_parsed,
                     RecordFn&& fn) {
  size_t pos = 0;
  while (pos < payload.size()) {
    const size_t nl = payload.find('\n', pos);
    const std::string_view line =
        payload.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                         : nl - pos);
    pos = nl == std::string_view::npos ? payload.size() : nl + 1;
    if (line.empty()) continue;
    json::JsonReader reader(line);
    CFNET_ASSIGN_OR_RETURN(Record record, Record::Decode(reader));
    CFNET_RETURN_IF_ERROR(reader.Finish());
    ++*records_parsed;
    fn(record);
  }
  return Status::OK();
}

}  // namespace

ExploratoryPlatform::ExploratoryPlatform(const Options& options)
    : options_(options) {
  world_ = std::make_unique<synth::World>(synth::World::Generate(options.world));
  web_ = std::make_unique<net::SocialWeb>(world_.get());
  dfs_ = std::make_unique<dfs::MiniDfs>(options.dfs);
  crawler::CrawlConfig crawl = options.crawl;
  if (options.compact_snapshots || options.epoch_published_hook) {
    // Fires after every successful crawl/replay flush; the platform outlives
    // the crawler it hands this to. A flush defines a snapshot epoch: once
    // the (optionally compacted) snapshots are durable, the epoch counter
    // advances and any subscriber (the serving tier) is told to rebuild.
    crawl.post_flush_hook = [this]() -> Status {
      if (options_.compact_snapshots) {
        CFNET_RETURN_IF_ERROR(CompactSnapshots());
      }
      const uint64_t epoch =
          snapshot_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (options_.epoch_published_hook) {
        options_.epoch_published_hook(epoch);
      }
      return Status::OK();
    };
  }
  crawler_ = std::make_unique<crawler::Crawler>(web_.get(), dfs_.get(),
                                                std::move(crawl));
  ctx_ = std::make_shared<dataflow::ExecutionContext>(
      options.analytics_parallelism == 0 ? ThreadPool::DefaultParallelism()
                                         : options.analytics_parallelism);
}

Status ExploratoryPlatform::CollectData() {
  CFNET_RETURN_IF_ERROR(crawler_->Run());
  collected_ = true;
  cached_inputs_.reset();
  return Status::OK();
}

Status ExploratoryPlatform::CompactSnapshots() {
  ThreadPool* pool = &ctx_->pool();
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<StartupRecord>(
      dfs_.get(), crawler_->StartupSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<UserRecord>(
      dfs_.get(), crawler_->UserSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<CrunchBaseRecord>(
      dfs_.get(), crawler_->CrunchBaseSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<FacebookRecord>(
      dfs_.get(), crawler_->FacebookSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<TwitterRecord>(
      dfs_.get(), crawler_->TwitterSnapshotDir(), pool));
  return Status::OK();
}

Result<AnalysisInputs> ExploratoryPlatform::LoadInputs() {
  if (!collected_) {
    return Status::FailedPrecondition("call CollectData() before LoadInputs()");
  }
  if (cached_inputs_ != nullptr) return *cached_inputs_;

  // Each directory loads from its columnar compaction when one is fresh
  // (block-parallel, no JSON parse) and falls back to the JSON shards
  // otherwise — see core/columnar_records.h for the staleness contract.
  // Loads are strict: a healthy pipeline fails loudly on damage it did not
  // expect.
  ThreadPool* pool = &ctx_->pool();
  const bool salvage = false;
  AnalysisInputs inputs;
  CFNET_ASSIGN_OR_RETURN(
      inputs.startups,
      LoadSnapshotRecords<StartupRecord>(*dfs_, crawler_->StartupSnapshotDir(),
                                         pool, salvage, &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.users,
      LoadSnapshotRecords<UserRecord>(*dfs_, crawler_->UserSnapshotDir(), pool,
                                      salvage, &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.crunchbase,
      LoadSnapshotRecords<CrunchBaseRecord>(
          *dfs_, crawler_->CrunchBaseSnapshotDir(), pool, salvage,
          &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.facebook,
      LoadSnapshotRecords<FacebookRecord>(
          *dfs_, crawler_->FacebookSnapshotDir(), pool, salvage,
          &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.twitter,
      LoadSnapshotRecords<TwitterRecord>(*dfs_, crawler_->TwitterSnapshotDir(),
                                         pool, salvage, &scan_report_));
  cached_inputs_ = std::make_unique<AnalysisInputs>(inputs);
  return inputs;
}

Result<ExploratoryPlatform::EpochAdvanceReport>
ExploratoryPlatform::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  EpochAdvanceReport report;
  if (epoch_maintainer_ == nullptr) {
    epoch_maintainer_ =
        std::make_unique<EpochMaintainer>(options_.epoch_config);
  }

  // Read the committed payload of every edge-bearing JSON shard up front:
  // a truncation anywhere (a shard shrank below its watermark, e.g. a
  // rolled-back resume) invalidates all watermarks, including shards read
  // before the regressed one.
  struct Shard {
    std::string path;
    std::string payload;
    bool is_user = false;
  };
  std::vector<Shard> shards;
  for (const std::string& path :
       SplitSnapshotFiles(dfs_->List(crawler_->UserSnapshotDir())).json) {
    CFNET_ASSIGN_OR_RETURN(std::string payload,
                           dfs::ReadCommitted(*dfs_, path));
    shards.push_back({path, std::move(payload), /*is_user=*/true});
  }
  for (const std::string& path :
       SplitSnapshotFiles(dfs_->List(crawler_->CrunchBaseSnapshotDir()))
           .json) {
    CFNET_ASSIGN_OR_RETURN(std::string payload,
                           dfs::ReadCommitted(*dfs_, path));
    shards.push_back({path, std::move(payload), /*is_user=*/false});
  }
  report.files_scanned = shards.size();

  bool full_rebuild = !epoch_maintainer_->has_epoch();
  for (const Shard& shard : shards) {
    auto it = epoch_watermarks_.find(shard.path);
    if (it != epoch_watermarks_.end() && shard.payload.size() < it->second) {
      report.watermark_reset = true;
      full_rebuild = true;
    }
  }
  if (report.watermark_reset) epoch_watermarks_.clear();

  std::vector<graph::EdgeDelta> deltas;
  for (Shard& shard : shards) {
    uint64_t& mark = epoch_watermarks_[shard.path];
    if (full_rebuild) mark = 0;
    const std::string_view fresh =
        std::string_view(shard.payload).substr(mark);
    if (shard.is_user) {
      CFNET_RETURN_IF_ERROR(ParseNewLines<UserRecord>(
          fresh, &report.records_parsed, [&](const UserRecord& u) {
            for (uint64_t c : u.investment_company_ids) {
              deltas.push_back(
                  {u.id & kEdgeIdMask, c & kEdgeIdMask, /*add=*/true});
            }
          }));
    } else {
      CFNET_RETURN_IF_ERROR(ParseNewLines<CrunchBaseRecord>(
          fresh, &report.records_parsed, [&](const CrunchBaseRecord& r) {
            for (uint64_t inv : r.round_investor_ids) {
              deltas.push_back({inv & kEdgeIdMask,
                                r.angellist_id & kEdgeIdMask, /*add=*/true});
            }
          }));
    }
    mark = shard.payload.size();
  }
  report.delta_edges_emitted = deltas.size();

  if (full_rebuild) {
    report.full_rebuild = true;
    std::vector<std::pair<uint64_t, uint64_t>> edges;
    edges.reserve(deltas.size());
    for (const graph::EdgeDelta& d : deltas) {
      edges.emplace_back(d.left_id, d.right_id);
    }
    epoch_maintainer_->FullBuild(edges);
  } else {
    epoch_maintainer_->Advance(deltas);
  }
  report.build = epoch_maintainer_->last_report();

  report.epoch = snapshot_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  last_epoch_report_ = report;
  if (options_.epoch_published_hook) {
    options_.epoch_published_hook(report.epoch);
  }
  return report;
}

}  // namespace cfnet::core
