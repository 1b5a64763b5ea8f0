// Property-based tests: randomized inputs checked against invariants or a
// trivially-correct reference implementation.

#include <algorithm>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "dataflow/dataset.h"
#include "dfs/dfs.h"
#include "json/json.h"
#include "stats/stats.h"
#include "util/rng.h"

namespace cfnet {
namespace {

// --- JSON: random documents round-trip exactly -------------------------------

json::Json RandomJson(Rng& rng, int depth) {
  double u = rng.NextDouble();
  if (depth >= 4 || u < 0.45) {
    // Scalar.
    switch (rng.NextUint64(5)) {
      case 0:
        return json::Json();
      case 1:
        return json::Json(rng.Bernoulli(0.5));
      case 2:
        return json::Json(rng.UniformInt(-1000000000000ll, 1000000000000ll));
      case 3:
        return json::Json(rng.Normal(0, 1e6));
      default: {
        std::string s;
        size_t len = rng.NextUint64(20);
        for (size_t i = 0; i < len; ++i) {
          // Mix printable ASCII with characters needing escapes.
          const char* alphabet =
              "abc XYZ123\"\\\n\t/\x01\x1f~";
          s.push_back(alphabet[rng.NextUint64(17)]);
        }
        return json::Json(std::move(s));
      }
    }
  }
  if (u < 0.72) {
    json::Json arr = json::Json::MakeArray();
    size_t n = rng.NextUint64(5);
    for (size_t i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth + 1));
    return arr;
  }
  json::Json obj = json::Json::MakeObject();
  size_t n = rng.NextUint64(5);
  for (size_t i = 0; i < n; ++i) {
    // Draw the value before the key: the seeded documents depend on it.
    json::Json value = RandomJson(rng, depth + 1);
    std::string key = "k";
    key += std::to_string(rng.NextUint64(8));
    obj.Set(key, std::move(value));
  }
  return obj;
}

class JsonRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripProperty, DumpParseIsIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    json::Json doc = RandomJson(rng, 0);
    std::string text = doc.Dump();
    auto reparsed = json::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << text << " -> " << reparsed.status();
    // NaN/Inf doubles dump as null, so compare the *re-dump* instead of the
    // original when doubles are involved; re-dump must be a fixed point.
    EXPECT_EQ(reparsed->Dump(), text);
  }
}

TEST_P(JsonRoundTripProperty, TruncationsNeverCrashAndUsuallyFail) {
  Rng rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 50; ++trial) {
    std::string text = RandomJson(rng, 0).Dump();
    if (text.size() < 2) continue;
    size_t cut = 1 + rng.NextUint64(text.size() - 1);
    auto result = json::Parse(text.substr(0, cut));
    // Must terminate without crashing; truncated containers must fail.
    if (result.ok()) {
      // A truncated scalar can still parse (e.g. "12" of "123"); verify it
      // at least re-dumps cleanly.
      EXPECT_FALSE(result->Dump().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- MiniDFS: random op sequences against a map reference ---------------------

class DfsModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DfsModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  dfs::DfsConfig config;
  config.num_datanodes = 5;
  config.block_size = 1 + rng.NextUint64(64);
  config.replication = 3;
  dfs::MiniDfs fs(config);
  std::map<std::string, std::string> reference;

  auto random_path = [&]() {
    return "/p/f" + std::to_string(rng.NextUint64(8));
  };
  auto random_data = [&]() {
    return std::string(rng.NextUint64(200),
                       static_cast<char>('a' + rng.NextUint64(26)));
  };

  int dead_nodes = 0;
  for (int step = 0; step < 400; ++step) {
    switch (rng.NextUint64(8)) {
      case 0: {  // write
        std::string p = random_path();
        std::string d = random_data();
        ASSERT_TRUE(fs.WriteFile(p, d).ok());
        reference[p] = d;
        break;
      }
      case 1: {  // append: rewrite the file with the concatenation
        std::string p = random_path();
        std::string d = random_data();
        reference[p] += d;
        ASSERT_TRUE(fs.WriteFile(p, reference[p]).ok());
        break;
      }
      case 2: {  // delete
        std::string p = random_path();
        Status s = fs.Delete(p);
        EXPECT_EQ(s.ok(), reference.erase(p) > 0);
        break;
      }
      case 3: {  // kill a node (keep a quorum alive for replication=3)
        if (dead_nodes < 2) {
          int node = static_cast<int>(rng.NextUint64(5));
          if (fs.IsDataNodeAlive(node)) {
            ASSERT_TRUE(fs.KillDataNode(node).ok());
            ++dead_nodes;
          }
        }
        break;
      }
      case 4: {  // revive all
        for (int node = 0; node < 5; ++node) fs.ReviveDataNode(node).ok();
        dead_nodes = 0;
        break;
      }
      case 5:
        fs.RunReplicationMonitor();
        break;
      case 6:
        EXPECT_EQ(fs.ScrubBlocks(), 0u);  // nothing corrupts itself
        break;
      default: {  // read
        std::string p = random_path();
        auto content = fs.ReadFile(p);
        auto it = reference.find(p);
        if (it == reference.end()) {
          EXPECT_FALSE(content.ok());
        } else {
          ASSERT_TRUE(content.ok()) << p;
          EXPECT_EQ(*content, it->second);
        }
      }
    }
  }
  // Final full verification.
  for (const auto& [p, d] : reference) {
    auto content = fs.ReadFile(p);
    ASSERT_TRUE(content.ok()) << p;
    EXPECT_EQ(*content, d);
  }
  auto listed = fs.List("/p/");
  EXPECT_EQ(listed.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsModelProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- dataflow: randomized pipelines match serial evaluation -------------------

class DataflowPipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataflowPipelineProperty, MatchesSerialReference) {
  Rng rng(GetParam());
  auto ctx = std::make_shared<dataflow::ExecutionContext>(4);

  std::vector<int64_t> data;
  size_t n = 500 + rng.NextUint64(3000);
  for (size_t i = 0; i < n; ++i) data.push_back(rng.UniformInt(-1000, 1000));

  auto ds = dataflow::Dataset<int64_t>::FromVector(
      ctx, data, 1 + rng.NextUint64(12));
  std::vector<int64_t> ref = data;

  int num_ops = 2 + static_cast<int>(rng.NextUint64(4));
  for (int op = 0; op < num_ops; ++op) {
    switch (rng.NextUint64(4)) {
      case 0: {
        int64_t mul = rng.UniformInt(2, 5);
        ds = ds.Map([mul](const int64_t& x) { return x * mul; });
        for (auto& x : ref) x *= mul;
        break;
      }
      case 1: {
        int64_t mod = rng.UniformInt(2, 7);
        ds = ds.Filter([mod](const int64_t& x) { return x % mod == 0; });
        std::vector<int64_t> kept;
        for (auto x : ref) {
          if (x % mod == 0) kept.push_back(x);
        }
        ref = kept;
        break;
      }
      case 2: {
        ds = ds.FlatMap([](const int64_t& x) {
          return std::vector<int64_t>{x, -x};
        });
        std::vector<int64_t> expanded;
        for (auto x : ref) {
          expanded.push_back(x);
          expanded.push_back(-x);
        }
        ref = expanded;
        break;
      }
      default: {
        ds = ds.Distinct();
        std::sort(ref.begin(), ref.end());
        ref.erase(std::unique(ref.begin(), ref.end()), ref.end());
        break;
      }
    }
  }
  auto result = ds.Collect();
  std::sort(result.begin(), result.end());
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(result, ref);

  // Aggregations agree with the reference too.
  int64_t ds_sum = ds.Reduce([](int64_t a, int64_t b) { return a + b; },
                             static_cast<int64_t>(0));
  int64_t ref_sum = 0;
  for (auto x : ref) ref_sum += x;
  EXPECT_EQ(ds_sum, ref_sum);
  EXPECT_EQ(ds.Count(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowPipelineProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// --- stats: ECDF is a valid distribution function ------------------------------

class EcdfProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcdfProperty, MonotoneRightContinuousWithValidRange) {
  Rng rng(GetParam());
  std::vector<double> samples;
  size_t n = 1 + rng.NextUint64(2000);
  for (size_t i = 0; i < n; ++i) {
    samples.push_back(rng.LogNormal(0, 2) * (rng.Bernoulli(0.5) ? 1 : -1));
  }
  stats::Ecdf f(samples);
  double prev = -1;
  for (double x = -100; x <= 100; x += 2.5) {
    double p = f(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GE(p, prev);  // monotone non-decreasing
    prev = p;
  }
  // Quantile/CDF near-inverse: F(Q(q)) >= q.
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_GE(f(f.Quantile(q)) + 1e-12, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty, ::testing::Values(9, 19, 29, 39));

}  // namespace
}  // namespace cfnet
