#ifndef CFNET_DFS_COMMIT_H_
#define CFNET_DFS_COMMIT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dfs/dfs.h"
#include "util/result.h"
#include "util/status.h"

namespace cfnet::dfs {

/// Durable-write protocol for snapshot/checkpoint artifacts.
///
/// Every committed file carries a fixed-width 40-byte trailer:
///
///     CFNETFTR1 <8-hex crc32> <20-digit payload length>\n
///
/// and is produced by write-to-temp -> footer -> read-back verify ->
/// atomic rename. The footer is the only defence that works against
/// corruption introduced *above* the replication layer (silent fsync loss,
/// rotten write buffers): block checksums are computed from whatever bytes
/// the write handed down, so they verify "clean" even when those bytes are
/// wrong. It is the only file format the DFS layer reads or writes: a file
/// is valid only if its footer verifies, and a file without one (a short
/// read looks exactly like that) is corrupt.

/// Fixed footer width in bytes.
inline constexpr size_t kCommitFooterSize = 40;

/// Footer magic (followed by one space in the serialized form).
inline constexpr std::string_view kCommitFooterMagic = "CFNETFTR1";

/// Suffix marking an uncommitted temp file. A crash between write and
/// rename orphans the temp; recovery sweeps delete it.
inline constexpr std::string_view kTempSuffix = ".tmp";

/// Namespace root that quarantined (bad-footer) files are renamed under.
/// Lives outside every data-dir prefix, so List()-driven consumers never
/// see quarantined files, but operators can inspect them.
inline constexpr std::string_view kQuarantineRoot = "/.quarantine";

/// Serializes the 40-byte footer for a payload with the given CRC/length.
std::string MakeCommitFooter(uint32_t payload_crc, uint64_t payload_len);

/// What the tail of a file looks like to the commit protocol.
enum class FooterState {
  kValid,    // well-formed footer, CRC and length match the payload
  kCorrupt,  // no footer, or one whose CRC/length disagree with the bytes
};

/// Classifies `file` and, when the footer is valid, stores the payload
/// length (file size minus footer) in `*payload_len`.
FooterState InspectFooter(std::string_view file, uint64_t* payload_len);

/// Length of `file` without its trailing footer bytes: the file size minus
/// kCommitFooterSize when the last kCommitFooterSize bytes start with the
/// footer magic (whether or not the footer verifies), the file size
/// otherwise. Salvage decoding of a corrupt file uses this to drop bytes
/// that are provably metadata and keep everything else.
size_t SalvagePayloadSize(std::string_view file);

/// `path` + ".tmp" — the uncommitted staging name.
std::string TempPath(const std::string& path);
bool IsTempPath(std::string_view path);

/// "/.quarantine" + `path` — where a bad-footer file is moved instead of
/// aborting the scan that found it.
std::string QuarantinePath(const std::string& path);

/// Atomically replaces `path` with `payload` + footer:
/// write `<path>.tmp` -> verify read-back -> rename over `path`.
/// The read-back is what catches silent fsync loss (a write that reports
/// OK but persisted a prefix). On failure the target is never half-written:
/// either the old content survives intact or the new content is fully
/// committed. Tries four times; every retry issues fresh storage ops, whose
/// new op serials are what let it escape an op-indexed fault window
/// deterministically. Best-effort deletes the temp on a failed commit.
Status CommitFile(MiniDfs* dfs, const std::string& path,
                  std::string_view payload);

/// Appends `payload` to the committed content of `path` (creating it when
/// absent) and re-commits the whole file under a fresh footer — the one
/// append primitive. Fails, leaving the file untouched, when the existing
/// content does not read back verified.
Status CommitAppend(MiniDfs* dfs, const std::string& path,
                    std::string_view payload);

/// Tries per commit or read (first attempt included).
inline constexpr int kCommitAttempts = 4;

/// Reads `path` and returns its verified payload (footer stripped). A file
/// whose footer does not verify — missing, torn, or damaged by a transient
/// short read or bit flip — is read up to kCommitAttempts times, then fails
/// Corruption. NotFound fails at once.
Result<std::string> ReadCommitted(const MiniDfs& dfs, const std::string& path);

/// What a recovery sweep found and did.
struct RecoveryReport {
  uint64_t temp_files_removed = 0;
  uint64_t files_quarantined = 0;
  std::vector<std::string> quarantined_paths;

  bool clean() const {
    return temp_files_removed == 0 && files_quarantined == 0;
  }
  void Merge(const RecoveryReport& other);
};

/// Startup/restart sweep over every file under `dir_prefix`:
///  - orphaned `.tmp` files (a writer died between write and rename) are
///    deleted — their rename never happened, so they are invisible to the
///    commit history by definition;
///  - files that still fail Corruption after ReadCommitted's retries are
///    renamed under /.quarantine for inspection instead of aborting
///    startup, so one transient read fault never moves a healthy file.
/// Logs a one-line summary when anything was repaired.
RecoveryReport SweepDir(MiniDfs* dfs, const std::string& dir_prefix);

}  // namespace cfnet::dfs

#endif  // CFNET_DFS_COMMIT_H_
