#include "dfs/jsonl.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/columnar_records.h"
#include "core/platform.h"
#include "core/records.h"
#include "dfs/columnar.h"
#include "dfs/commit.h"
#include "json/json.h"
#include "json/reader.h"
#include "util/thread_pool.h"

namespace cfnet {
namespace {

using core::CrunchBaseRecord;
using core::FacebookRecord;
using core::StartupRecord;
using core::TwitterRecord;
using core::UserRecord;
using dfs::MiniDfs;
using dfs::ScanOptions;

std::vector<json::Json> Flatten(std::vector<std::vector<json::Json>> parts) {
  std::vector<json::Json> out;
  for (auto& p : parts) {
    for (auto& v : p) out.push_back(std::move(v));
  }
  return out;
}

TEST(ScanJsonLinesTest, MatchesReadJsonLinesAcrossShards) {
  MiniDfs dfs;
  ASSERT_TRUE(
      dfs::CommitFile(&dfs, "/snap/part-0", "{\"id\":1}\n{\"id\":2}\n").ok());
  ASSERT_TRUE(
      dfs::CommitFile(&dfs, "/snap/part-1", "\n{\"id\":3}\n\n{\"id\":4}").ok());
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-2", "").ok());
  const std::vector<std::string> paths = {"/snap/part-0", "/snap/part-1",
                                          "/snap/part-2"};
  std::vector<json::Json> expected;
  for (const auto& p : paths) {
    auto records = dfs::ReadJsonLines(dfs, p);
    ASSERT_TRUE(records.ok());
    for (auto& r : *records) expected.push_back(std::move(r));
  }
  auto scanned = dfs::ScanJsonLinesDom(dfs, paths);
  ASSERT_TRUE(scanned.ok());
  std::vector<json::Json> got = Flatten(std::move(*scanned));
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

TEST(ScanJsonLinesTest, ParallelScanPartitionsAndPreservesOrder) {
  MiniDfs dfs;
  std::string content;
  std::vector<int64_t> expected_ids;
  for (int64_t i = 0; i < 500; ++i) {
    content += "{\"id\":" + std::to_string(i) + "}\n";
    expected_ids.push_back(i);
  }
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-0", content).ok());
  ThreadPool pool(4);
  ScanOptions options;
  options.pool = &pool;
  options.min_range_bytes = 64;  // force several ranges despite the tiny file
  auto scanned = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"}, options);
  ASSERT_TRUE(scanned.ok());
  EXPECT_GT(scanned->size(), 1u) << "expected a multi-range split";
  std::vector<int64_t> got;
  for (const auto& part : *scanned) {
    for (const auto& doc : part) got.push_back(doc.Get("id").AsInt());
  }
  EXPECT_EQ(got, expected_ids);
}

TEST(ScanJsonLinesTest, MalformedLineVerdictMatchesReadJsonLines) {
  MiniDfs dfs;
  ASSERT_TRUE(
      dfs::CommitFile(&dfs, "/snap/part-0", "{\"id\":1}\n{broken\n{\"id\":2}\n")
          .ok());
  auto sequential = dfs::ReadJsonLines(dfs, "/snap/part-0");
  ASSERT_FALSE(sequential.ok());
  ScanOptions options;
  options.min_range_bytes = 1;
  auto scanned = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"}, options);
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().ToString(), sequential.status().ToString());
}

TEST(ScanJsonLinesTest, EarliestFailingLineWinsAcrossRanges) {
  MiniDfs dfs;
  // Two malformed lines; the earlier one (file order) must be reported even
  // when a later range finishes first.
  std::string content;
  for (int i = 0; i < 50; ++i) content += "{\"id\":" + std::to_string(i) + "}\n";
  content += "{bad-early\n";
  for (int i = 0; i < 50; ++i) content += "{\"id\":" + std::to_string(i) + "}\n";
  content += "{bad-late\n";
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-0", content).ok());
  ThreadPool pool(4);
  ScanOptions options;
  options.pool = &pool;
  options.min_range_bytes = 32;
  auto scanned = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"}, options);
  ASSERT_FALSE(scanned.ok());
  EXPECT_NE(scanned.status().ToString().find(":51:"), std::string::npos)
      << scanned.status().ToString();
}

TEST(ScanJsonLinesTest, EmptyInputsYieldOneEmptyPartition) {
  MiniDfs dfs;
  auto no_files = dfs::ScanJsonLinesDom(dfs, {});
  ASSERT_TRUE(no_files.ok());
  ASSERT_EQ(no_files->size(), 1u);
  EXPECT_TRUE((*no_files)[0].empty());

  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/empty", "").ok());
  auto empty_file = dfs::ScanJsonLinesDom(dfs, {"/snap/empty"});
  ASSERT_TRUE(empty_file.ok());
  ASSERT_EQ(empty_file->size(), 1u);
  EXPECT_TRUE((*empty_file)[0].empty());
}

TEST(ScanJsonLinesTest, MissingFilePropagatesError) {
  MiniDfs dfs;
  auto scanned = dfs::ScanJsonLinesDom(dfs, {"/snap/nope"});
  EXPECT_FALSE(scanned.ok());
}

/// --- corruption-aware scans (salvage mode) --------------------------------

std::vector<int64_t> ScanIds(const std::vector<std::vector<json::Json>>& parts) {
  std::vector<int64_t> ids;
  for (const auto& part : parts) {
    for (const auto& doc : part) ids.push_back(doc.Get("id").AsInt());
  }
  return ids;
}

TEST(ScanSalvageTest, DropsTruncatedFinalLineAndCountsIt) {
  MiniDfs dfs;
  // A committed shard torn after the fact: the footer is gone and the last
  // line is a torn prefix ({"id":3 lost its closing brace and newline).
  const std::string payload = "{\"id\":1}\n{\"id\":2}\n{\"id\":3}\n";
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-0", payload).ok());
  ASSERT_TRUE(
      dfs.WriteFile("/snap/part-0", payload.substr(0, payload.size() - 2))
          .ok());
  ScanOptions strict;
  auto failed = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"}, strict);
  EXPECT_FALSE(failed.ok());

  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(ScanIds(*scanned), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(report.files_scanned, 1u);
  EXPECT_EQ(report.records_dropped, 1u);
  EXPECT_EQ(report.quarantined_paths,
            (std::vector<std::string>{"/snap/part-0"}));
}

TEST(ScanSalvageTest, SkipsLinesWithEmbeddedNulBytes) {
  MiniDfs dfs;
  // A committed shard whose second line later rotted into NUL-bearing
  // garbage (the footer no longer verifies).
  const std::string line2 = "{\"id\":2,\"name\":\"a_b\"}";
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-0",
                              "{\"id\":1}\n" + line2 + "\n{\"id\":3}\n")
                  .ok());
  std::string content = *dfs.ReadFile("/snap/part-0");
  const size_t at = content.find(line2);
  ASSERT_NE(at, std::string::npos);
  content.replace(at, line2.size(),
                  std::string("{\"id\":2,\"name\":\"a\0b\"}", 22));
  ASSERT_TRUE(dfs.WriteFile("/snap/part-0", content).ok());
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  // The intact neighbours of the garbage line survive byte-identically.
  EXPECT_EQ(ScanIds(*scanned), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(report.records_dropped, 1u);
}

TEST(ScanSalvageTest, CorruptMiddleBlockQuarantinesInReportOnly) {
  MiniDfs dfs;
  // A properly committed shard whose payload rotted after commit: the
  // footer CRC no longer matches.
  std::string payload = "{\"id\":1}\n{\"id\":2}\n{\"id\":3}\n";
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-0", payload).ok());
  std::string raw = *dfs.ReadFile("/snap/part-0");
  raw[11] = 'X';  // damage the middle record: {"id":2} -> {"Xd":2}... no:
  // index 11 lands inside the second line; any flip breaks the CRC.
  ASSERT_TRUE(dfs.WriteFile("/snap/part-0", raw).ok());

  // Strict mode refuses the file outright.
  auto strict = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  // Salvage mode decodes what still parses and reports the file.
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLinesDom(dfs, {"/snap/part-0"}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<int64_t> ids = ScanIds(*scanned);
  EXPECT_EQ(ids.size() + report.records_dropped, 3u);
  ASSERT_EQ(report.quarantined_paths.size(), 1u);
  EXPECT_EQ(report.quarantined_paths[0], "/snap/part-0");
}

/// A committed 50-record shard whose payload rotted one byte inside a name
/// after commit: the footer no longer verifies, yet every line still decodes.
std::string CommitRottedShard(MiniDfs* dfs, const std::string& path) {
  std::string payload;
  for (int i = 1; i <= 50; ++i) {
    payload += "{\"id\":" + std::to_string(i) + ",\"name\":\"startup-" +
               std::to_string(i) + "\"}\n";
  }
  EXPECT_TRUE(dfs::CommitFile(dfs, path, payload).ok());
  std::string raw = *dfs->ReadFile(path);
  const size_t at = raw.find("startup-25");
  EXPECT_NE(at, std::string::npos);
  raw[at] = 'S';
  EXPECT_TRUE(dfs->WriteFile(path, raw).ok());
  return raw;
}

TEST(ScanSalvageTest, ShortSalvageReReadIsRetriedNotDecoded) {
  const std::string path = "/snap/part-0";
  ScanOptions salvage;
  salvage.salvage = true;

  MiniDfs clean;
  CommitRottedShard(&clean, path);
  auto expected = dfs::ScanJsonLinesDom(clean, {path}, salvage);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(ScanIds(*expected).size(), 50u);

  // ReadCommitted spends kCommitAttempts reads on the bad footer; the next
  // read is the salvage re-read, and it comes back short.
  MiniDfs faulty;
  CommitRottedShard(&faulty, path);
  const uint64_t salvage_read =
      faulty.GetStats().read_ops + dfs::kCommitAttempts + 1;
  dfs::IoFaultPlan plan;
  plan.short_reads = {{salvage_read, salvage_read + 1, 1.0}};
  faulty.InstallFaultPlan(plan);
  dfs::ScanReport report;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLinesDom(faulty, {path}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(ScanIds(*scanned), ScanIds(*expected));
  EXPECT_EQ(report.records_dropped, 0u);
  EXPECT_EQ(report.quarantined_paths, (std::vector<std::string>{path}));

  // A shard that never reads back whole fails instead of decoding a prefix.
  MiniDfs always_short;
  CommitRottedShard(&always_short, path);
  const uint64_t first_read = always_short.GetStats().read_ops + 1;
  dfs::IoFaultPlan short_plan;
  short_plan.short_reads = {{first_read, 0, 1.0}};
  always_short.InstallFaultPlan(short_plan);
  auto failed = dfs::ScanJsonLinesDom(always_short, {path}, salvage);
  EXPECT_FALSE(failed.ok());
}

TEST(ScanSalvageTest, FooterVerifiedFilesAreCountedAndStayStrict) {
  MiniDfs dfs;
  {
    dfs::JsonLinesWriter writer(&dfs, "/snap/part-0");
    for (int i = 1; i <= 4; ++i) {
      json::Json r = json::Json::MakeObject();
      r.Set("id", i);
      ASSERT_TRUE(writer.Write(r).ok());
    }
    ASSERT_TRUE(writer.Flush().ok());
  }
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-1", "{\"id\":5}\n").ok());
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned =
      dfs::ScanJsonLinesDom(dfs, {"/snap/part-0", "/snap/part-1"}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(ScanIds(*scanned), (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_TRUE(report.quarantined_paths.empty());
  EXPECT_EQ(report.records_dropped, 0u);
  EXPECT_GT(report.bytes_scanned, 0u);
}

/// Writes `n` startup records (long names, so block payloads have bytes to
/// damage) as a committed columnar file of `block_rows`-row blocks.
std::vector<StartupRecord> WriteColumnarStartups(MiniDfs* dfs,
                                                 const std::string& path,
                                                 size_t n, size_t block_rows) {
  std::vector<StartupRecord> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = i + 1;
    rows[i].name = "padding-padding-padding-" + std::to_string(i);
    rows[i].follower_count = static_cast<int64_t>(i);
  }
  dfs::ColumnarWriteOptions options;
  options.block_rows = block_rows;
  dfs::ColumnarWriter<StartupRecord> writer(dfs, path, options);
  for (const StartupRecord& r : rows) writer.Add(r);
  EXPECT_TRUE(writer.Finish().ok());
  return rows;
}

TEST(ColumnarSalvageTest, BitFlippedBlockIsDroppedOthersSurvive) {
  MiniDfs dfs;
  const std::string path = "/snap/part-all.cfc";
  std::vector<StartupRecord> rows =
      WriteColumnarStartups(&dfs, path, /*n=*/20, /*block_rows=*/5);

  // Rot one byte inside the first block's dictionary (post-commit, so the
  // commit footer no longer verifies either).
  std::string raw = *dfs.ReadFile(path);
  const size_t pos = raw.find("padding-padding-padding-0");
  ASSERT_NE(pos, std::string::npos);
  raw[pos] ^= 0x20;
  ASSERT_TRUE(dfs.WriteFile(path, raw).ok());

  // Strict mode refuses the file outright (corrupt commit footer).
  auto strict = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  // Salvage drops exactly the damaged block and keeps the other three.
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<StartupRecord> got;
  for (auto& part : *scanned) {
    for (auto& r : part) got.push_back(std::move(r));
  }
  ASSERT_EQ(got.size(), 15u);
  EXPECT_EQ(got.front(), rows[5]) << "surviving blocks keep their records";
  EXPECT_EQ(got.back(), rows[19]);
  EXPECT_EQ(report.columnar_blocks_scanned, 4u);
  EXPECT_EQ(report.columnar_blocks_failed, 1u);
  EXPECT_EQ(report.records_dropped, 5u);
  ASSERT_EQ(report.quarantined_paths.size(), 1u);
  EXPECT_EQ(report.quarantined_paths[0], path);
}

TEST(ColumnarSalvageTest, TruncatedFileKeepsWalkedPrefix) {
  MiniDfs dfs;
  const std::string path = "/snap/part-all.cfc";
  std::vector<StartupRecord> rows =
      WriteColumnarStartups(&dfs, path, /*n=*/20, /*block_rows=*/5);

  // Torn tail: the file loses its footer and half of the last block — the
  // kind of damage a dying replica leaves behind.
  std::string raw = *dfs.ReadFile(path);
  ASSERT_TRUE(dfs.WriteFile(path, raw.substr(0, raw.size() - 60)).ok());

  auto strict = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<StartupRecord> got;
  for (auto& part : *scanned) {
    for (auto& r : part) got.push_back(std::move(r));
  }
  // Every fully-framed block before the tear decodes; the torn tail block is
  // gone. The exact count depends on where the tear lands, but the prefix
  // property must hold.
  ASSERT_GT(got.size(), 0u);
  ASSERT_LT(got.size(), rows.size());
  ASSERT_EQ(got.size() % 5, 0u) << "whole blocks only";
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], rows[i]);
  EXPECT_EQ(report.columnar_blocks_scanned, got.size() / 5);
  EXPECT_EQ(report.columnar_blocks_failed, 0u);
}

TEST(ColumnarSalvageTest, SnapshotLoadFallsBackToJsonOnColumnarRot) {
  MiniDfs dfs;
  const std::string dir = "/snap/facebook/";
  std::string shard;
  for (int i = 0; i < 12; ++i) {
    shard += "{\"angellist_id\":" + std::to_string(i + 1) +
             ",\"fan_count\":" + std::to_string(i * 3) + "}\n";
  }
  ASSERT_TRUE(dfs::CommitFile(&dfs, dir + "part-0.jsonl", shard).ok());
  ASSERT_TRUE(
      core::CompactSnapshotDir<FacebookRecord>(&dfs, dir, nullptr, 4).ok());

  // Rot the columnar file; the JSON shards are still intact.
  const std::string col = core::ColumnarPathFor(dir);
  std::string raw = *dfs.ReadFile(col);
  raw[raw.size() / 2] ^= 0x01;
  ASSERT_TRUE(dfs.WriteFile(col, raw).ok());

  // Strict load surfaces the damage...
  auto strict = core::ScanSnapshotRecords<FacebookRecord>(
      dfs, dir, nullptr, /*salvage=*/false, nullptr);
  ASSERT_FALSE(strict.ok());

  // ...salvage load abandons the rotted columnar file wholesale and returns
  // the complete stream from JSON (not a partial columnar decode).
  dfs::ScanReport report;
  auto parts = core::ScanSnapshotRecords<FacebookRecord>(
      dfs, dir, nullptr, /*salvage=*/true, &report);
  ASSERT_TRUE(parts.ok()) << parts.status();
  size_t total = 0;
  for (const auto& p : *parts) total += p.size();
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(report.records_dropped, 0u);
}

/// --- streaming record decoders vs FromJson -------------------------------

template <typename T>
T DecodeOne(std::string_view line) {
  json::JsonReader reader(line);
  auto decoded = T::Decode(reader);
  EXPECT_TRUE(decoded.ok()) << line << ": " << decoded.status().ToString();
  EXPECT_TRUE(reader.Finish().ok()) << line;
  return decoded.ok() ? *decoded : T{};
}

template <typename T>
T DomOne(std::string_view line) {
  auto parsed = json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return T::FromJson(parsed.ok() ? *parsed : json::Json());
}

void ExpectEq(const StartupRecord& a, const StartupRecord& b,
              std::string_view doc) {
  EXPECT_EQ(a.id, b.id) << doc;
  EXPECT_EQ(a.name, b.name) << doc;
  EXPECT_EQ(a.has_twitter_url, b.has_twitter_url) << doc;
  EXPECT_EQ(a.has_facebook_url, b.has_facebook_url) << doc;
  EXPECT_EQ(a.has_crunchbase_url, b.has_crunchbase_url) << doc;
  EXPECT_EQ(a.has_video, b.has_video) << doc;
  EXPECT_EQ(a.fundraising, b.fundraising) << doc;
  EXPECT_EQ(a.follower_count, b.follower_count) << doc;
}

void ExpectEq(const UserRecord& a, const UserRecord& b, std::string_view doc) {
  EXPECT_EQ(a.id, b.id) << doc;
  EXPECT_EQ(a.is_investor, b.is_investor) << doc;
  EXPECT_EQ(a.is_founder, b.is_founder) << doc;
  EXPECT_EQ(a.is_employee, b.is_employee) << doc;
  EXPECT_EQ(a.investment_company_ids, b.investment_company_ids) << doc;
  EXPECT_EQ(a.following_startup_count, b.following_startup_count) << doc;
  EXPECT_EQ(a.following_user_count, b.following_user_count) << doc;
}

void ExpectEq(const CrunchBaseRecord& a, const CrunchBaseRecord& b,
              std::string_view doc) {
  EXPECT_EQ(a.angellist_id, b.angellist_id) << doc;
  EXPECT_DOUBLE_EQ(a.total_funding_usd, b.total_funding_usd) << doc;
  EXPECT_EQ(a.num_rounds, b.num_rounds) << doc;
  EXPECT_EQ(a.round_investor_ids, b.round_investor_ids) << doc;
}

void ExpectEq(const FacebookRecord& a, const FacebookRecord& b,
              std::string_view doc) {
  EXPECT_EQ(a.angellist_id, b.angellist_id) << doc;
  EXPECT_EQ(a.fan_count, b.fan_count) << doc;
}

void ExpectEq(const TwitterRecord& a, const TwitterRecord& b,
              std::string_view doc) {
  EXPECT_EQ(a.angellist_id, b.angellist_id) << doc;
  EXPECT_EQ(a.statuses_count, b.statuses_count) << doc;
  EXPECT_EQ(a.followers_count, b.followers_count) << doc;
  EXPECT_EQ(a.followers_count_null, b.followers_count_null) << doc;
}

template <typename T>
void ExpectDecodeMatchesFromJson(const std::vector<const char*>& docs) {
  for (const char* doc : docs) {
    ExpectEq(DecodeOne<T>(doc), DomOne<T>(doc), doc);
  }
}

TEST(RecordDecodeDifferentialTest, Startup) {
  ExpectDecodeMatchesFromJson<StartupRecord>({
      "{}",
      "{\"id\":7,\"name\":\"Acme\",\"twitter_url\":\"http://t\","
      "\"facebook_url\":\"\",\"crunchbase_url\":\"http://c\","
      "\"video_url\":\"v\",\"fundraising\":true,\"follower_count\":12}",
      "{\"id\":7.9,\"name\":42,\"twitter_url\":null,\"fundraising\":\"yes\"}",
      "{\"follower_count\":\"many\",\"video_url\":false}",
      "{\"id\":1,\"id\":2}",                      // dup key: last wins
      "{\"twitter_url\":\"x\",\"twitter_url\":\"\"}",
      "{\"extra\":{\"nested\":[1,2]},\"id\":5}",  // unknown composite skipped
      "{\"name\":\"esc\\n\\u00e9\"}",
  });
}

TEST(RecordDecodeDifferentialTest, User) {
  ExpectDecodeMatchesFromJson<UserRecord>({
      "{}",
      "{\"id\":3,\"roles\":[\"investor\",\"founder\"],"
      "\"investment_company_ids\":[1,2,3],"
      "\"following_startup_count\":4,\"following_user_count\":5}",
      "{\"roles\":[\"employee\",\"other\"],\"roles\":[\"founder\"]}",
      "{\"roles\":\"investor\"}",                 // non-array roles: no flags
      "{\"roles\":[null,42,\"investor\"]}",
      "{\"investment_company_ids\":[1],\"investment_company_ids\":[2,3]}",
      "{\"investment_company_ids\":{\"a\":1}}",   // non-array: empty
      "{\"id\":\"x\",\"following_user_count\":2.7}",
  });
}

TEST(RecordDecodeDifferentialTest, CrunchBase) {
  ExpectDecodeMatchesFromJson<CrunchBaseRecord>({
      "{}",
      "{\"angellist_id\":9,\"total_funding_usd\":1.5e6,"
      "\"funding_rounds\":[{\"investor_ids\":[1,2]},{\"investor_ids\":[3]}]}",
      "{\"funding_rounds\":[]}",
      "{\"funding_rounds\":[{},{\"other\":1},{\"investor_ids\":\"x\"}]}",
      "{\"funding_rounds\":{\"a\":1,\"b\":2}}",   // object: size = members
      "{\"funding_rounds\":{\"a\":1,\"a\":2}}",   // dup keys collapse
      "{\"funding_rounds\":42}",                  // scalar: zero rounds
      "{\"funding_rounds\":[{\"investor_ids\":[1],\"investor_ids\":[2,3]}]}",
      "{\"funding_rounds\":[{\"investor_ids\":[1]}],"
      "\"funding_rounds\":[{\"investor_ids\":[9]}]}",
      "{\"total_funding_usd\":7}",                // int coerces to double
  });
}

TEST(RecordDecodeDifferentialTest, Facebook) {
  ExpectDecodeMatchesFromJson<FacebookRecord>({
      "{}",
      "{\"angellist_id\":4,\"fan_count\":100}",
      "{\"fan_count\":\"lots\",\"angellist_id\":1.2}",
  });
}

TEST(RecordDecodeDifferentialTest, Twitter) {
  ExpectDecodeMatchesFromJson<TwitterRecord>({
      "{}",                                       // missing -> null verdict
      "{\"angellist_id\":2,\"statuses_count\":10,\"followers_count\":20}",
      "{\"followers_count\":null}",
      "{\"followers_count\":\"n/a\"}",            // non-null, coerces to 0
      "{\"followers_count\":null,\"followers_count\":5}",
      "{\"followers_count\":5,\"followers_count\":null}",
  });
}

TEST(RecordDecodeDifferentialTest, MalformedLineFailsBothPaths) {
  const char* doc = "{\"id\":1,";
  auto parsed = json::Parse(doc);
  ASSERT_FALSE(parsed.ok());
  json::JsonReader reader(doc);
  auto decoded = StartupRecord::Decode(reader);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().ToString(), parsed.status().ToString());
}

/// --- end-to-end: platform loaders on a crawled world ---------------------

TEST(PlatformIngestTest, TypedLoadersMatchDomPipeline) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.01;
  options.analytics_parallelism = 4;
  core::ExploratoryPlatform platform(options);
  ASSERT_TRUE(platform.CollectData().ok());
  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok());

  // Reference: every JSON shard of the directory parsed to a DOM, then
  // decoded with T::FromJson.
  auto check_dir = [&](const std::string& dir, auto tag, const auto& typed) {
    using T = decltype(tag);
    const MiniDfs& dfs = platform.dfs();
    auto docs = dfs::ScanJsonLinesDom(
        dfs, core::SplitSnapshotFiles(dfs.List(dir)).json);
    ASSERT_TRUE(docs.ok());
    std::vector<T> dom;
    for (const json::Json& j : Flatten(std::move(*docs))) {
      dom.push_back(T::FromJson(j));
    }
    ASSERT_EQ(typed.size(), dom.size()) << dir;
    for (size_t i = 0; i < dom.size(); ++i) ExpectEq(typed[i], dom[i], dir);
  };
  check_dir(platform.crawler().StartupSnapshotDir(), StartupRecord{},
            inputs->startups);
  check_dir(platform.crawler().UserSnapshotDir(), UserRecord{}, inputs->users);
  check_dir(platform.crawler().CrunchBaseSnapshotDir(), CrunchBaseRecord{},
            inputs->crunchbase);
  check_dir(platform.crawler().FacebookSnapshotDir(), FacebookRecord{},
            inputs->facebook);
  check_dir(platform.crawler().TwitterSnapshotDir(), TwitterRecord{},
            inputs->twitter);
  EXPECT_FALSE(inputs->startups.empty());
  EXPECT_FALSE(inputs->users.empty());
}

}  // namespace
}  // namespace cfnet
