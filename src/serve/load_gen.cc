#include "serve/load_gen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace cfnet::serve {
namespace {

/// Thread-safe sink for responses of one load phase. Tearing detection:
/// every 200 body carries the snapshot's (epoch, content fingerprint); two
/// responses claiming the same epoch but different fingerprints — or a body
/// epoch disagreeing with the transport epoch — mean a torn view.
class Collector {
 public:
  void Record(const QueryResponse& resp) {
    switch (resp.outcome) {
      case QueryResponse::Outcome::kServed:
        served_.fetch_add(1, std::memory_order_relaxed);
        if (resp.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
        if (resp.cache_hit) cache_hits_.fetch_add(1, std::memory_order_relaxed);
        if (resp.status >= 400) errors_.fetch_add(1, std::memory_order_relaxed);
        latency_.Record(resp.total_micros);
        break;
      case QueryResponse::Outcome::kShedQueueFull:
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryResponse::Outcome::kShedDeadline:
        shed_deadline_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryResponse::Outcome::kShedShutdown:
        shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryResponse::Outcome::kTimeout:
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    if (resp.status == 200 && resp.body) {
      const uint64_t body_epoch =
          static_cast<uint64_t>(resp.body->Get("epoch").AsInt());
      const uint64_t body_fp =
          static_cast<uint64_t>(resp.body->Get("fingerprint").AsInt());
      std::lock_guard<std::mutex> lock(mu_);
      if (body_epoch != resp.epoch) {
        ++torn_;
      } else {
        auto [it, inserted] = epoch_fp_.emplace(body_epoch, body_fp);
        if (!inserted && it->second != body_fp) ++torn_;
      }
    }
    const int64_t done = completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == issued_target_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_all();
    }
  }

  /// Blocks until `issued` responses arrived (open-loop drain).
  void AwaitCompleted(int64_t issued) {
    issued_target_.store(issued, std::memory_order_release);
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [this, issued] {
      return completed_.load(std::memory_order_acquire) >= issued;
    });
  }

  LoadResult Finalize(int64_t issued, int64_t wall_micros) const {
    LoadResult r;
    r.issued = issued;
    r.served = served_.load();
    r.degraded = degraded_.load();
    r.cache_hits = cache_hits_.load();
    r.shed_queue_full = shed_queue_full_.load();
    r.shed_deadline = shed_deadline_.load();
    r.shed_shutdown = shed_shutdown_.load();
    r.timeouts = timeouts_.load();
    r.errors = errors_.load();
    r.wall_micros = wall_micros;
    r.latency_p50_micros = latency_.PercentileMicros(0.50);
    r.latency_p99_micros = latency_.PercentileMicros(0.99);
    r.latency_mean_micros = latency_.mean_micros();
    {
      std::lock_guard<std::mutex> lock(mu_);
      r.torn_responses = torn_;
      r.epochs_seen = static_cast<int64_t>(epoch_fp_.size());
    }
    const double wall_s =
        wall_micros > 0 ? static_cast<double>(wall_micros) / 1e6 : 1e-9;
    r.offered_rps = static_cast<double>(issued) / wall_s;
    r.goodput_rps = static_cast<double>(r.served) / wall_s;
    return r;
  }

 private:
  std::atomic<int64_t> served_{0};
  std::atomic<int64_t> degraded_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> shed_queue_full_{0};
  std::atomic<int64_t> shed_deadline_{0};
  std::atomic<int64_t> shed_shutdown_{0};
  std::atomic<int64_t> timeouts_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> issued_target_{INT64_MAX};
  LatencyHistogram latency_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> epoch_fp_;
  int64_t torn_ = 0;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace

WorkloadGenerator::WorkloadGenerator(const ServingSnapshot& snap,
                                     PersonaMix mix) {
  double total = mix.founder + mix.investor + mix.job_seeker;
  if (total <= 0) {
    total = 1;
    mix = PersonaMix{1, 0, 0};
  }
  founder_cut_ = mix.founder / total;
  investor_cut_ = founder_cut_ + mix.investor / total;

  investor_ids_.reserve(snap.graph.num_left());
  for (uint32_t l = 0; l < snap.graph.num_left(); ++l) {
    investor_ids_.push_back(snap.graph.LeftId(l));
  }
  company_ids_.reserve(snap.graph.num_right());
  for (uint32_t r = 0; r < snap.graph.num_right(); ++r) {
    company_ids_.push_back(snap.graph.RightId(r));
  }
  // Search seeds: short prefixes of real investor names, deduplicated, so
  // prefix queries hit populated regions of the name index.
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < snap.investors.size() && prefixes_.size() < 256;
       i += 7) {
    const std::string& name = snap.investors[i].name_lower;
    if (name.size() < 2) continue;
    std::string prefix = name.substr(0, 2 + (i % 3));
    if (seen.insert(prefix).second) prefixes_.push_back(std::move(prefix));
  }
  if (prefixes_.empty()) prefixes_.push_back("a");
}

QueryRequest WorkloadGenerator::FounderRequest(std::mt19937_64& rng) const {
  if (!company_ids_.empty() && rng() % 10 < 7) {
    QueryRequest req("investors.recommend");
    req.params["startup_id"] =
        std::to_string(company_ids_[rng() % company_ids_.size()]);
    req.params["k"] = "10";
    return req;
  }
  QueryRequest req("investors.search");
  req.params["q"] = prefixes_[rng() % prefixes_.size()];
  req.params["k"] = "10";
  return req;
}

QueryRequest WorkloadGenerator::InvestorRequest(std::mt19937_64& rng) const {
  const uint64_t roll = rng() % 100;
  if (roll < 50 && !investor_ids_.empty()) {
    QueryRequest req("investors.similar");
    req.params["investor_id"] =
        std::to_string(investor_ids_[rng() % investor_ids_.size()]);
    req.params["k"] = "10";
    return req;
  }
  if (roll < 75) return QueryRequest("facets.communities");
  QueryRequest req("investors.profile");
  if (!investor_ids_.empty()) {
    req.params["id"] =
        std::to_string(investor_ids_[rng() % investor_ids_.size()]);
  }
  return req;
}

QueryRequest WorkloadGenerator::JobSeekerRequest(std::mt19937_64& rng) const {
  const uint64_t roll = rng() % 100;
  if (roll < 60) {
    QueryRequest req("investors.search");
    req.params["q"] = prefixes_[rng() % prefixes_.size()];
    req.params["k"] = "10";
    if (roll < 15) req.params.emplace("min_investments", "2");
    return req;
  }
  if (roll < 85) return QueryRequest("facets.centrality");
  QueryRequest req("investors.profile");
  if (!investor_ids_.empty()) {
    req.params["id"] =
        std::to_string(investor_ids_[rng() % investor_ids_.size()]);
  }
  return req;
}

QueryRequest WorkloadGenerator::Next(std::mt19937_64& rng) const {
  const double roll =
      static_cast<double>(rng() % 1'000'000) / 1'000'000.0;
  if (roll < founder_cut_) return FounderRequest(rng);
  if (roll < investor_cut_) return InvestorRequest(rng);
  return JobSeekerRequest(rng);
}

json::Json LoadResult::ToJson() const {
  json::Json doc = json::Json::MakeObject();
  doc.Set("issued", json::Json(issued));
  doc.Set("served", json::Json(served));
  doc.Set("degraded", json::Json(degraded));
  doc.Set("cache_hits", json::Json(cache_hits));
  doc.Set("shed_queue_full", json::Json(shed_queue_full));
  doc.Set("shed_deadline", json::Json(shed_deadline));
  doc.Set("shed_shutdown", json::Json(shed_shutdown));
  doc.Set("timeouts", json::Json(timeouts));
  doc.Set("errors", json::Json(errors));
  doc.Set("torn_responses", json::Json(torn_responses));
  doc.Set("epochs_seen", json::Json(epochs_seen));
  doc.Set("wall_micros", json::Json(wall_micros));
  doc.Set("latency_p50_micros", json::Json(latency_p50_micros));
  doc.Set("latency_p99_micros", json::Json(latency_p99_micros));
  doc.Set("latency_mean_micros", json::Json(latency_mean_micros));
  doc.Set("offered_rps", json::Json(offered_rps));
  doc.Set("goodput_rps", json::Json(goodput_rps));
  return doc;
}

LoadResult RunClosedLoop(QueryService& service, const WorkloadGenerator& gen,
                         const ClosedLoopConfig& config) {
  Collector collector;
  std::atomic<int64_t> issued{0};
  const int64_t start = service.now_micros();
  const int64_t stop_at = start + config.duration_micros;

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(config.seed * 0x9e3779b97f4a7c15ull +
                          static_cast<uint64_t>(c));
      int sent = 0;
      for (;;) {
        if (config.requests_per_client > 0) {
          if (sent >= config.requests_per_client) break;
        } else if (service.now_micros() >= stop_at) {
          break;
        }
        QueryRequest req = gen.Next(rng);
        if (config.deadline_micros > 0) {
          req.deadline_micros = service.now_micros() + config.deadline_micros;
        }
        QueryResponse resp = service.Call(std::move(req));
        collector.Record(resp);
        issued.fetch_add(1, std::memory_order_relaxed);
        ++sent;
      }
    });
  }
  for (auto& t : clients) t.join();
  return collector.Finalize(issued.load(), service.now_micros() - start);
}

LoadResult RunOpenLoop(QueryService& service, const WorkloadGenerator& gen,
                       const OpenLoopConfig& config) {
  Collector collector;
  std::mt19937_64 rng(config.seed);
  // Dispatch in 1 ms ticks instead of one sleep per request: at overload
  // rates (1e5+ rps) a per-request sleep_until spends more CPU waking the
  // scheduler than the service under test gets, which turns the generator
  // into the bottleneck it is supposed to create.
  constexpr int64_t kTickMicros = 1000;
  const double per_tick =
      std::max(config.offered_rps, 1.0) * kTickMicros / 1e6;
  double carry = 0;

  // Pre-generate the request trace so the timed loop only moves requests
  // out of a vector. Generating inline (rng + param-map allocations) at
  // overload rates makes the generator compete with the service for CPU —
  // on a small host that caps offered load well below the configured rate.
  const auto expected = static_cast<size_t>(
      std::max(config.offered_rps, 1.0) * config.duration_micros / 1e6 *
          1.25 +
      16);
  std::vector<QueryRequest> trace;
  trace.reserve(expected);
  for (size_t i = 0; i < expected; ++i) trace.push_back(gen.Next(rng));

  int64_t issued = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  const int64_t start = service.now_micros();
  const int64_t stop_at = start + config.duration_micros;
  auto next_fire = wall_start;
  while (service.now_micros() < stop_at) {
    carry += per_tick;
    auto batch = static_cast<int64_t>(carry);
    carry -= static_cast<double>(batch);
    for (int64_t i = 0; i < batch; ++i) {
      const auto slot = static_cast<size_t>(issued);
      QueryRequest req = slot < trace.size() ? std::move(trace[slot])
                                             : gen.Next(rng);  // trace ran dry
      if (config.deadline_micros > 0) {
        req.deadline_micros = service.now_micros() + config.deadline_micros;
      }
      service.SubmitAsync(std::move(req), [&collector](QueryResponse resp) {
        collector.Record(resp);
      });
      ++issued;
    }
    next_fire += std::chrono::microseconds(kTickMicros);
    std::this_thread::sleep_until(next_fire);
  }
  collector.AwaitCompleted(issued);
  return collector.Finalize(issued, service.now_micros() - start);
}

}  // namespace cfnet::serve
