// Determinism guarantees: the whole pipeline is reproducible bit-for-bit
// for a fixed seed, regardless of worker/thread counts where the design
// promises it.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "community/coda.h"
#include "community/louvain.h"
#include "community/sbm.h"
#include "core/engagement_analysis.h"
#include "core/investor_graph.h"
#include "core/platform.h"
#include "util/rng.h"

namespace cfnet {
namespace {

core::ExploratoryPlatform::Options SmallOptions(int workers) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  options.world.seed = 2024;
  options.crawl.num_workers = workers;
  return options;
}

TEST(DeterminismTest, TwoIdenticalPlatformsAgreeExactly) {
  core::ExploratoryPlatform a(SmallOptions(4));
  core::ExploratoryPlatform b(SmallOptions(4));
  ASSERT_TRUE(a.CollectData().ok());
  ASSERT_TRUE(b.CollectData().ok());

  EXPECT_EQ(a.crawl_report().companies_crawled,
            b.crawl_report().companies_crawled);
  EXPECT_EQ(a.crawl_report().users_crawled, b.crawl_report().users_crawled);
  EXPECT_EQ(a.crawl_report().crunchbase_profiles,
            b.crawl_report().crunchbase_profiles);

  auto inputs_a = a.LoadInputs();
  auto inputs_b = b.LoadInputs();
  ASSERT_TRUE(inputs_a.ok());
  ASSERT_TRUE(inputs_b.ok());

  core::EngagementTable ta = core::AnalyzeEngagement(a.context(), *inputs_a);
  core::EngagementTable tb = core::AnalyzeEngagement(b.context(), *inputs_b);
  ASSERT_EQ(ta.rows.size(), tb.rows.size());
  for (size_t i = 0; i < ta.rows.size(); ++i) {
    EXPECT_EQ(ta.rows[i].num_companies, tb.rows[i].num_companies);
    EXPECT_DOUBLE_EQ(ta.rows[i].success_pct, tb.rows[i].success_pct);
  }
  EXPECT_DOUBLE_EQ(ta.fb_likes_median, tb.fb_likes_median);
}

TEST(DeterminismTest, WorkerCountDoesNotChangeCrawlCoverage) {
  core::ExploratoryPlatform a(SmallOptions(1));
  core::ExploratoryPlatform b(SmallOptions(8));
  ASSERT_TRUE(a.CollectData().ok());
  ASSERT_TRUE(b.CollectData().ok());
  // Coverage counts are worker-count independent (fetch *order* differs but
  // the BFS closure and augmentation results are the same sets).
  EXPECT_EQ(a.crawl_report().companies_crawled,
            b.crawl_report().companies_crawled);
  EXPECT_EQ(a.crawl_report().users_crawled, b.crawl_report().users_crawled);
  EXPECT_EQ(a.crawl_report().crunchbase_profiles,
            b.crawl_report().crunchbase_profiles);
  EXPECT_EQ(a.crawl_report().facebook_profiles,
            b.crawl_report().facebook_profiles);
  EXPECT_EQ(a.crawl_report().twitter_profiles,
            b.crawl_report().twitter_profiles);

  // And the merged investor graph is identical.
  auto inputs_a = a.LoadInputs();
  auto inputs_b = b.LoadInputs();
  ASSERT_TRUE(inputs_a.ok());
  ASSERT_TRUE(inputs_b.ok());
  graph::BipartiteGraph ga = core::BuildInvestorGraph(a.context(), *inputs_a);
  graph::BipartiteGraph gb = core::BuildInvestorGraph(b.context(), *inputs_b);
  EXPECT_EQ(ga.num_left(), gb.num_left());
  EXPECT_EQ(ga.num_edges(), gb.num_edges());
}

graph::BipartiteGraph SmallPlanted(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < 12; ++i) {
      for (int c = 0; c < 9; ++c) {
        if (rng.Bernoulli(0.6)) {
          edges.emplace_back(static_cast<uint64_t>(b * 12 + i + 1),
                             500 + static_cast<uint64_t>(b * 9 + c));
        }
      }
    }
  }
  return graph::BipartiteGraph::FromEdges(edges);
}

TEST(DeterminismTest, CodaIndependentOfThreadCount) {
  // F rows update against a snapshot of H (and vice versa), so the fit is
  // exactly reproducible regardless of the worker-pool width.
  graph::BipartiteGraph g = SmallPlanted(6);
  community::CodaConfig one;
  one.num_communities = 6;
  one.max_iterations = 12;
  one.num_threads = 1;
  community::CodaConfig four = one;
  four.num_threads = 4;
  community::CodaResult ra = community::Coda(one).Fit(g);
  community::CodaResult rb = community::Coda(four).Fit(g);
  EXPECT_EQ(ra.final_log_likelihood, rb.final_log_likelihood);
  ASSERT_EQ(ra.log_likelihood_trace.size(), rb.log_likelihood_trace.size());
  for (size_t i = 0; i < ra.log_likelihood_trace.size(); ++i) {
    EXPECT_EQ(ra.log_likelihood_trace[i], rb.log_likelihood_trace[i]);
  }
  EXPECT_EQ(ra.f, rb.f);
  EXPECT_EQ(ra.h, rb.h);
}

TEST(DeterminismTest, DetectorsDeterministicPerSeed) {
  graph::BipartiteGraph g = SmallPlanted(7);
  graph::WeightedGraph projection = graph::WeightedGraph::ProjectLeft(g);

  community::LouvainResult la = community::RunLouvain(projection);
  community::LouvainResult lb = community::RunLouvain(projection);
  EXPECT_EQ(la.labels, lb.labels);
  EXPECT_DOUBLE_EQ(la.modularity, lb.modularity);

  community::SbmResult sa = community::RunSbm(g);
  community::SbmResult sb = community::RunSbm(g);
  EXPECT_EQ(sa.investor_labels, sb.investor_labels);
  EXPECT_DOUBLE_EQ(sa.log_posterior, sb.log_posterior);
}

}  // namespace
}  // namespace cfnet
