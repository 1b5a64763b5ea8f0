#include "traffic.h"

#include <set>

#include "serve/queries.h"

namespace cfnet::perfbench {

const char* EndpointName(int endpoint) {
  static const char* const kNames[kNumEndpoints] = {
      "investors.search",    "investors.profile",  "investors.recommend",
      "investors.similar",   "facets.communities", "facets.centrality"};
  return kNames[endpoint];
}

const char* EndpointLabel(int endpoint) {
  static const char* const kLabels[kNumEndpoints] = {
      "search", "profile", "recommend", "similar", "facets_communities",
      "facets_centrality"};
  return kLabels[endpoint];
}

RequestSource::RequestSource(const serve::ServingSnapshot& snap, uint64_t seed,
                             uint64_t ranking_seed, bool unique_keys,
                             double zipf_s)
    : unique_keys_(unique_keys),
      zipf_s_(zipf_s),
      rng_(seed * 0x9e3779b97f4a7c15ull + 17) {
  // Search keys: every prefix (two letters or longer) of an investor name,
  // as a user types it, with and without the min_investments filter.
  std::set<std::string> prefixes;
  for (const auto& inv : snap.investors) {
    for (size_t len = 2; len <= inv.name_lower.size(); ++len) {
      prefixes.insert(inv.name_lower.substr(0, len));
    }
  }
  for (const std::string& q : prefixes) {
    universe_[kSearch].push_back({{"q", q}, {"k", "10"}});
    universe_[kSearch].push_back(
        {{"q", q}, {"k", "10"}, {"min_investments", "2"}});
  }
  for (uint32_t l = 0; l < snap.graph.num_left(); ++l) {
    const std::string id = std::to_string(snap.graph.LeftId(l));
    universe_[kProfile].push_back({{"id", id}});
    universe_[kSimilar].push_back({{"investor_id", id}, {"k", "10"}});
  }
  for (uint32_t r = 0; r < snap.graph.num_right(); ++r) {
    universe_[kRecommend].push_back(
        {{"startup_id", std::to_string(snap.graph.RightId(r))}, {"k", "10"}});
  }
  // Facets take no parameters: one key each.
  universe_[kFacetCommunities].push_back({});
  universe_[kFacetCentrality].push_back({});

  // Skewed keys are Zipf-ranked in the shuffled order.
  Rng ranking(ranking_seed);
  for (auto& keys : universe_) ranking.Shuffle(keys);
}

int RequestSource::PickEndpoint() {
  // Persona mix of serve::WorkloadGenerator: founders mostly ask for
  // investor recommendations, investors look at peers and facets, job
  // seekers search.
  const double persona = rng_.NextDouble();
  const double roll = rng_.NextDouble();
  if (persona < 0.25) return roll < 0.7 ? kRecommend : kSearch;
  if (persona < 0.55) {
    if (roll < 0.5) return kSimilar;
    return roll < 0.75 ? kFacetCommunities : kProfile;
  }
  if (roll < 0.6) return kSearch;
  return roll < 0.85 ? kFacetCentrality : kProfile;
}

RequestSource::Params RequestSource::PickKey(int endpoint) {
  const std::vector<Params>& keys = universe_[endpoint];
  if (!unique_keys_) {
    return keys[rng_.Zipf(static_cast<int64_t>(keys.size()), zipf_s_) - 1];
  }
  // Each key at most once: walk the shuffled universe; once it is used up,
  // walk it again with a generation parameter the queries ignore, so the
  // key is new while the query work stays that of a real key.
  const uint64_t n = cursor_[endpoint]++;
  Params params = keys[n % keys.size()];
  if (n >= keys.size()) params["v"] = std::to_string(n / keys.size());
  return params;
}

TrafficItem RequestSource::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  TrafficItem item;
  item.endpoint = PickEndpoint();
  item.request = serve::QueryRequest(EndpointName(item.endpoint),
                                     PickKey(item.endpoint));
  return item;
}

std::vector<TrafficItem> RequestSource::Take(size_t n) {
  std::vector<TrafficItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) items.push_back(Next());
  return items;
}

}  // namespace cfnet::perfbench
