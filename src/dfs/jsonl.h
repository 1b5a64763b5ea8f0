#ifndef CFNET_DFS_JSONL_H_
#define CFNET_DFS_JSONL_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "json/json.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cfnet::dfs {

/// What a (set of) JSON-lines scans saw and salvaged. Accumulates across
/// calls when the same report is passed to several scans, so the platform
/// can surface one aggregate per load.
struct ScanReport {
  /// Every scanned file either verified its commit footer or is listed in
  /// `quarantined_paths`.
  uint64_t files_scanned = 0;
  uint64_t bytes_scanned = 0;
  /// Salvage-mode lines dropped because they failed to decode (torn tails,
  /// embedded garbage). Zero in strict mode by construction.
  uint64_t records_dropped = 0;
  /// Files whose footer did not verify (salvage mode decodes them leniently
  /// and records them here; recovery sweeps move them under /.quarantine).
  std::vector<std::string> quarantined_paths;

  /// --- columnar counters (ScanColumnBlocks) --------------------------------
  /// Columnar (.cfc) files scanned.
  uint64_t columnar_files = 0;
  /// Blocks whose frame was walked (including blocks that failed CRC).
  uint64_t columnar_blocks_scanned = 0;
  /// Blocks dropped in salvage mode because their CRC or column decode
  /// disagreed with the frame (their rows count into records_dropped).
  uint64_t columnar_blocks_failed = 0;
  /// Bytes of per-block string dictionaries decoded.
  uint64_t columnar_dictionary_bytes = 0;
  /// On-disk block payload bytes successfully decoded...
  uint64_t columnar_encoded_bytes = 0;
  /// ...and the in-memory record bytes they expanded to. The ratio of the
  /// two is the effective compression of the columnar encodings.
  uint64_t columnar_decoded_bytes = 0;

  void Merge(const ScanReport& other);
};

/// Buffered writer of JSON-lines snapshot files into MiniDFS — the format
/// the crawler stores records in (one JSON document per line, as the paper's
/// platform stores crawled documents in HDFS).
class JsonLinesWriter {
 public:
  /// Buffers up to `flush_bytes` before appending to `path`. Every flush
  /// goes through CommitAppend, so the file always carries a verified CRC
  /// footer and a crash mid-flush leaves the previous committed content
  /// intact.
  JsonLinesWriter(MiniDfs* dfs, std::string path, size_t flush_bytes = 1 << 20);
  ~JsonLinesWriter();

  JsonLinesWriter(const JsonLinesWriter&) = delete;
  JsonLinesWriter& operator=(const JsonLinesWriter&) = delete;

  /// Serializes one record as a compact JSON line, appending directly into
  /// the writer's reusable buffer (no per-record string allocation).
  Status Write(const json::Json& record);

  /// Flushes buffered lines to the DFS.
  Status Flush();

  size_t records_written() const { return records_written_; }
  const std::string& path() const { return path_; }

 private:
  MiniDfs* dfs_;
  std::string path_;
  size_t flush_bytes_;
  std::string buffer_;
  size_t records_written_ = 0;
};

/// Reads every record of a committed JSON-lines file (ReadCommitted: a
/// footer that does not verify fails Corruption). Malformed lines produce
/// an error (the crawler only writes well-formed lines; corruption means
/// DFS trouble).
Result<std::vector<json::Json>> ReadJsonLines(const MiniDfs& dfs,
                                              const std::string& path);

/// Counts the records (non-empty lines) of a JSON-lines file without
/// parsing them.
Result<int64_t> CountJsonLines(const MiniDfs& dfs, const std::string& path);

/// Truncates a JSON-lines file to its first `keep_records` records — the
/// crash-recovery primitive that discards shard appends made after the last
/// checkpoint. Keeping at least the current record count is a no-op;
/// truncating to zero deletes the file.
Status TruncateJsonLines(MiniDfs* dfs, const std::string& path,
                         int64_t keep_records);

/// --- parallel sharded scans ------------------------------------------------

/// Options for `ScanJsonLines`.
struct ScanOptions {
  /// Decode ranges in parallel on this pool (`ThreadPool::RunBulk`, caller
  /// participates); nullptr decodes sequentially on the caller.
  ThreadPool* pool = nullptr;
  /// Target number of output partitions (line-aligned byte ranges across all
  /// shards). 0 picks 4x the pool's thread count (1 when sequential) so the
  /// morsel scheduler can balance skewed shards.
  size_t target_partitions = 0;
  /// Ranges are not split below this many bytes.
  size_t min_range_bytes = 64 * 1024;
  /// Salvage mode: instead of failing the scan, a file whose footer does
  /// not verify is decoded leniently (lines that fail to decode are skipped
  /// and counted in the report). Footer-*verified* files always decode
  /// strictly — their bytes are proven intact, so a decode failure there is
  /// a real bug, not storage damage. Strict mode (the default) fails fast.
  bool salvage = false;
  /// When set, scan accounting accumulates here (see ScanReport).
  ScanReport* report = nullptr;
};

namespace internal_scan {

/// One line-aligned byte range of a loaded shard's contents: `begin` starts
/// a line, `end` is one past the terminating '\n' of the last line (or the
/// shard's last byte).
struct LineRange {
  size_t file = 0;
  size_t begin = 0;
  size_t end = 0;
  int64_t first_line = 1;  // 1-based line number at `begin`
};

/// Loaded shard payloads plus per-file decode policy.
struct ShardLoad {
  std::vector<std::string> contents;  // footer-stripped payloads
  /// Per-file: true when decode failures drop the line (salvaged files
  /// whose footer did not verify) instead of failing the scan.
  std::vector<char> lenient;
};

/// Reads every shard's verified payload with ReadCommitted (whole files;
/// MiniDFS is an in-memory block store, so this is the only read
/// granularity it offers). Strict mode fails on a footer that does not
/// verify; salvage mode reads such a file as stored, drops a trailing
/// footer-shaped tail (SalvagePayloadSize), marks the file lenient and
/// records it in `report`.
Result<ShardLoad> LoadShardContents(const MiniDfs& dfs,
                                    const std::vector<std::string>& paths,
                                    bool salvage, ScanReport* report);

/// Splits shard contents into roughly `target_ranges` line-aligned ranges,
/// none smaller than `min_range_bytes`, ordered by (file, begin).
std::vector<LineRange> SplitLineRanges(const std::vector<std::string>& contents,
                                       size_t target_ranges,
                                       size_t min_range_bytes);

}  // namespace internal_scan

/// Streaming scan over a set of JSON-lines shard files: splits the shards
/// into line-aligned byte ranges, decodes each range with
/// `decode(std::string_view line) -> Result<T>` (in parallel when
/// `options.pool` is set), and returns one output vector per range.
///
/// Record order across the flattened partitions equals sequential
/// `ReadJsonLines` order over `paths`; blank lines are skipped and a
/// malformed line yields the same "path:line:" Corruption verdict (the
/// earliest failing line wins when several ranges fail).
template <typename T, typename DecodeFn>
Result<std::vector<std::vector<T>>> ScanJsonLines(
    const MiniDfs& dfs, const std::vector<std::string>& paths,
    DecodeFn&& decode, const ScanOptions& options = ScanOptions()) {
  ScanReport scratch_report;
  ScanReport* report =
      options.report != nullptr ? options.report : &scratch_report;
  CFNET_ASSIGN_OR_RETURN(
      internal_scan::ShardLoad load,
      internal_scan::LoadShardContents(dfs, paths, options.salvage, report));
  const std::vector<std::string>& contents = load.contents;
  size_t target = options.target_partitions;
  if (target == 0) {
    target = options.pool != nullptr ? options.pool->num_threads() * 4 : 1;
  }
  std::vector<internal_scan::LineRange> ranges = internal_scan::SplitLineRanges(
      contents, std::max<size_t>(1, target), options.min_range_bytes);
  std::vector<std::vector<T>> parts(ranges.size());
  std::vector<Status> errors(ranges.size(), Status::OK());
  std::vector<uint64_t> dropped(ranges.size(), 0);
  auto run_range = [&](size_t i) {
    const internal_scan::LineRange& range = ranges[i];
    if (range.begin >= range.end) return;  // degenerate empty-input range
    const std::string& content = contents[range.file];
    const bool lenient = load.lenient[range.file] != 0;
    std::vector<T>& out = parts[i];
    size_t start = range.begin;
    int64_t line_no = range.first_line;
    while (start < range.end) {
      size_t nl = content.find('\n', start);
      size_t stop = (nl == std::string::npos || nl >= range.end) ? range.end : nl;
      std::string_view line(content.data() + start, stop - start);
      if (!StrTrim(line).empty()) {
        auto decoded = decode(line);
        if (decoded.ok()) {
          out.push_back(std::move(decoded).value());
        } else if (lenient) {
          // Salvaged file: the damage is expected — drop the line, keep
          // everything that still decodes.
          ++dropped[i];
        } else {
          errors[i] = Status::Corruption(paths[range.file] + ":" +
                                         std::to_string(line_no) + ": " +
                                         decoded.status().message());
          return;
        }
      }
      ++line_no;
      start = stop + 1;
    }
  };
  if (options.pool != nullptr && ranges.size() > 1) {
    options.pool->RunBulk(ranges.size(), run_range);
  } else {
    for (size_t i = 0; i < ranges.size(); ++i) run_range(i);
  }
  // Ranges are ordered by (file, line), so the first failing range holds the
  // globally earliest malformed line — the one ReadJsonLines would report.
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (!errors[i].ok()) return errors[i];
  }
  for (uint64_t d : dropped) report->records_dropped += d;
  return parts;
}

/// DOM-decoding convenience scan: every line parsed with `json::Parse`.
/// Equivalent to concatenating `ReadJsonLines` over `paths`, but partitioned
/// (and parallel when `options.pool` is set).
Result<std::vector<std::vector<json::Json>>> ScanJsonLinesDom(
    const MiniDfs& dfs, const std::vector<std::string>& paths,
    const ScanOptions& options = ScanOptions());

}  // namespace cfnet::dfs

#endif  // CFNET_DFS_JSONL_H_
