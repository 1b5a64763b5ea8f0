// serve_hot / serve_cold: the query service over a scale-0.2 snapshot, 2
// QueryService workers, fed in turn by the benchmark's own open-loop
// generator, by 2 closed-loop clients (latency) and by 16 (capacity).
//
//  serve_hot:  one epoch, Zipf-skewed keys — the result cache answers most
//              requests and query execution does little.
//  serve_cold: no key ever repeats, so the cache only pays its miss path;
//              beside the open-loop queries a publisher thread turns a 1%
//              edge delta into a new epoch every 100 ms
//              (EpochMaintainer::Advance -> AssembleServingSnapshot ->
//              EpochStore::Publish).
//
// At most 4 threads run at once: the 2 workers, the open-loop generator
// and the publisher. Closed-loop clients run on the workers' completion
// callbacks and need no thread.
//
// The served world is always the paper-seed world (query costs move by
// about 20% from one generated world to another); --seed drives the
// traffic and the epoch deltas.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/epoch_maintainer.h"
#include "core/investor_graph.h"
#include "open_loop.h"
#include "pipeline.h"
#include "serve/epoch_store.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "serve/serving_snapshot.h"
#include "trace.h"
#include "traffic.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cfnet::perfbench {
namespace {

using Store = serve::EpochStore<serve::ServingSnapshot>;

constexpr double kScale = 0.2;
constexpr double kSmallScale = 0.01;
constexpr uint64_t kWorldSeed = 20160626;
constexpr char kGoldenKey[] = "serve@0.2";
constexpr size_t kSetups = 3;
constexpr int kWorkers = 2;
/// Closed-loop clients of the latency phase: one per worker, so a request
/// waits for no other and no worker has to be woken for it.
constexpr int kLatencyClients = 2;
/// Closed-loop clients of the capacity phase: enough that both workers
/// always find a queued request, few enough that the queue wait stays far
/// below every class deadline even while the admission predictor still
/// prices the drain at the open loop's slower rate.
constexpr int kCapacityClients = 16;
/// Requests generated per closed-loop segment; the clients cycle through
/// them. A serve_hot segment sends about this many and a serve_cold one
/// far fewer, so cycling adds no cache hits.
constexpr size_t kClosedRequests = 1 << 15;
/// Open-loop rates: about a quarter of each workload's closed-loop
/// capacity with 2 workers on the 4-vCPU bench host, so that the host's
/// slow periods still leave headroom.
constexpr double kHotRate = 5000;
constexpr double kColdRate = 1500;
/// Unmeasured open-loop warm-up at the start of each window: the result
/// cache and the workers' allocations fill before timing starts.
constexpr double kWarmupSeconds = 0.5;
/// Shares of the measured window spent in the open loop and in the
/// closed-loop latency phase; the rest is the capacity phase. Each is
/// split over kRounds rounds.
constexpr double kOpenShare = 0.2;
constexpr double kLatencyShare = 0.4;
constexpr int kRounds = 4;
/// Latency percentiles are taken per slice of this many consecutive
/// requests (10 samples beyond the p99) and the median slice is reported.
constexpr size_t kSliceRequests = 1000;
/// Class deadline of serve_hot's requests. The service's defaults (25 ms
/// search and facet, 100 ms recommend) are shorter than the vCPU stalls
/// of the shared bench host, so with them serve_hot's failures counted the
/// host's stalls; a stall still shows in the latency it adds. serve_cold
/// keeps the defaults, which its epoch swaps are measured against.
constexpr int64_t kHotDeadlineMicros = 1'000'000;
constexpr auto kEpochPeriod = std::chrono::milliseconds(100);
/// Edge changes per epoch as a share of the edges (half removals, half
/// re-additions of the previous batch's removals).
constexpr double kDeltaFraction = 0.01;
/// Every kVerifyEvery-th 200 response is re-executed and compared.
constexpr uint64_t kVerifyEvery = 64;
/// Epochs the publisher keeps pinned so their responses can be re-executed.
constexpr size_t kPinnedEpochs = 4;
constexpr uint64_t kMaxEpochs = 1 << 14;

/// A published snapshot and everything needed to evolve and query it.
struct Setup {
  std::unique_ptr<core::ExploratoryPlatform> platform;
  std::unique_ptr<core::EpochMaintainer> maintainer;
  std::unique_ptr<Store> store;
  std::vector<std::pair<uint64_t, uint64_t>> edges;  // epoch-1 edge set
  serve::SnapshotBuildOptions build;
  CrawlRun crawl;
  double load_s = 0;
  double graph_s = 0;
  double full_build_s = 0;
  double assemble_s = 0;
  double publish_s = 0;
  double total_s = 0;
};

/// Torn-response detection and byte-for-byte re-execution of sampled
/// responses, fed by the load generators' response hook.
class ResponseChecks {
 public:
  ResponseChecks() : fingerprints_(kMaxEpochs), seen_(kMaxEpochs) {}

  /// Called by the publisher before an epoch becomes visible.
  void Register(uint64_t epoch, uint64_t fingerprint) {
    CFNET_CHECK(epoch < kMaxEpochs) << "too many epochs";
    fingerprints_[epoch].store(fingerprint, std::memory_order_release);
  }

  void OnResponse(const serve::QueryRequest& request,
                  const serve::QueryResponse& resp) {
    if (resp.status != 200 || resp.body == nullptr) return;
    const uint64_t body_epoch =
        static_cast<uint64_t>(resp.body->Get("epoch").AsInt());
    const uint64_t body_fp =
        static_cast<uint64_t>(resp.body->Get("fingerprint").AsInt());
    if (body_epoch != resp.epoch || body_epoch >= kMaxEpochs ||
        fingerprints_[body_epoch].load(std::memory_order_acquire) != body_fp) {
      torn_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    seen_[body_epoch].store(true, std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_relaxed) % kVerifyEvery != 0) {
      return;
    }
    Sample s{request, resp.degraded, resp.epoch, resp.body->Dump()};
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(s));
  }

  /// Re-executes every pending sample whose epoch is among `pins` through
  /// serve::ExecuteQuery and compares the bodies byte for byte.
  void Verify(const std::vector<const Store::Pin*>& pins) {
    std::vector<Sample> work;
    {
      std::lock_guard<std::mutex> lock(mu_);
      work.swap(pending_);
    }
    std::vector<Sample> keep;
    for (Sample& s : work) {
      const Store::Pin* pin = nullptr;
      for (const Store::Pin* p : pins) {
        if (*p && p->epoch() == s.epoch) pin = p;
      }
      if (pin == nullptr) {
        keep.push_back(std::move(s));
        continue;
      }
      serve::QueryOutcome again = serve::ExecuteQuery(
          **pin, s.request.endpoint, s.request.params,
          s.degraded ? serve::DegradedLimits() : serve::QueryLimits{});
      if (s.degraded) again.body.Set("degraded", json::Json(true));
      ++verified_;
      if (again.body.Dump() != s.body) ++mismatched_;
    }
    std::lock_guard<std::mutex> lock(mu_);
    pending_.insert(pending_.end(), std::make_move_iterator(keep.begin()),
                    std::make_move_iterator(keep.end()));
  }

  int64_t torn() const { return torn_.load(); }
  int64_t verified() const { return verified_; }
  int64_t mismatched() const { return mismatched_; }
  size_t unverified() {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }
  int64_t epochs_seen() const {
    int64_t n = 0;
    for (const auto& s : seen_) n += s.load() ? 1 : 0;
    return n;
  }

 private:
  struct Sample {
    serve::QueryRequest request;
    bool degraded = false;
    uint64_t epoch = 0;
    std::string body;
  };
  std::vector<std::atomic<uint64_t>> fingerprints_;
  std::vector<std::atomic<bool>> seen_;
  std::atomic<int64_t> torn_{0};
  std::atomic<uint64_t> count_{0};
  std::mutex mu_;
  std::vector<Sample> pending_;  // guarded by mu_
  int64_t verified_ = 0;         // Verify() runs on one thread at a time
  int64_t mismatched_ = 0;
};

std::unique_ptr<const serve::ServingSnapshot> Assemble(
    uint64_t epoch, const core::EpochArtifacts& art,
    const serve::SnapshotBuildOptions& build) {
  return serve::AssembleServingSnapshot(epoch, art.graph, art.projection,
                                        art.community_labels, art.communities,
                                        build);
}

Setup BuildSetup(ResponseChecks* checks) {
  Setup s;
  const int64_t start = NowNanos();
  trace::Span span("bench.setup", /*new_trace=*/true);
  s.platform = BuildAndCrawl(
      PlatformOptions(kScale, kWorldSeed, /*checkpointing=*/false,
                      /*compact_snapshots=*/false),
      /*compact_after=*/true, &s.crawl);
  core::AnalysisInputs inputs;
  {
    trace::Span load("core.load_inputs");
    auto loaded = s.platform->LoadInputs();
    CFNET_CHECK(loaded.ok()) << loaded.status().ToString();
    inputs = std::move(loaded).value();
    s.load_s = load.End();
  }
  {
    trace::Span g("core.investor_graph");
    const graph::BipartiteGraph graph =
        core::BuildInvestorGraph(s.platform->context(), inputs);
    for (uint32_t l = 0; l < graph.num_left(); ++l) {
      for (uint32_t r : graph.OutNeighbors(l)) {
        s.edges.emplace_back(graph.LeftId(l), graph.RightId(r));
      }
    }
    s.graph_s = g.End();
  }
  {
    trace::Span full("core.epoch_full_build");
    s.maintainer = std::make_unique<core::EpochMaintainer>();
    s.maintainer->FullBuild(s.edges);
    s.full_build_s = full.End();
  }
  const synth::World* world = &s.platform->world();
  s.build.investor_name = [world](uint64_t id) {
    const synth::UserTruth* u = world->FindUser(id);
    return u != nullptr ? u->name : "investor-" + std::to_string(id);
  };
  s.build.company_name = [world](uint64_t id) {
    const synth::CompanyTruth* c = world->FindCompany(id);
    return c != nullptr ? c->name : "company-" + std::to_string(id);
  };
  s.store = std::make_unique<Store>();
  std::unique_ptr<const serve::ServingSnapshot> snap;
  {
    trace::Span a("serve.snapshot_assemble");
    snap = Assemble(1, s.maintainer->artifacts(), s.build);
    s.assemble_s = a.End();
  }
  checks->Register(1, snap->content_fingerprint);
  {
    trace::Span p("serve.epoch_store_publish");
    CFNET_CHECK(s.store->Publish(std::move(snap)) == 1);
    s.publish_s = p.End();
  }
  s.total_s = SecondsSince(start);
  return s;
}

/// Publishes a new epoch every kEpochPeriod from 1% edge deltas, from
/// construction until destruction; keeps the last few epochs pinned to
/// re-execute sampled responses.
class EpochPublisher {
 public:
  EpochPublisher(Setup* setup, ResponseChecks* checks, uint64_t seed,
                 uint64_t* batch)
      : setup_(setup), checks_(checks), batch_(batch) {
    order_ = setup->edges;
    Rng(seed).Shuffle(order_);
    slice_ = std::max<size_t>(
        1, static_cast<size_t>(kDeltaFraction / 2 *
                               static_cast<double>(order_.size())));
    parent_ = trace::CurrentSpan();
    parent_trace_ = trace::CurrentTraceId();
    thread_ = std::thread([this] { Loop(); });
  }

  ~EpochPublisher() { Stop(); }

  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  /// Stops publishing and joins the thread (idempotent).
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Per published epoch; complete after Stop().
  std::vector<double> advance_ms, assemble_ms, store_publish_us, publish_ms;

 private:
  void Loop() {
    trace::AdoptParent(parent_, parent_trace_);
    std::deque<Store::Pin> pins;
    pins.push_back(setup_->store->Acquire());
    auto next = std::chrono::steady_clock::now() + kEpochPeriod;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
      }
      next += kEpochPeriod;
      PublishOne();
      pins.push_back(setup_->store->Acquire());
      if (pins.size() > kPinnedEpochs) pins.pop_front();
      std::vector<const Store::Pin*> view;
      for (const Store::Pin& p : pins) view.push_back(&p);
      checks_->Verify(view);
    }
  }

  void PublishOne() {
    const size_t slices = order_.size() / slice_;
    const uint64_t k = (*batch_)++;
    std::vector<graph::EdgeDelta> deltas;
    auto add_slice = [&](uint64_t j, bool add) {
      const size_t begin = static_cast<size_t>(j % slices) * slice_;
      for (size_t i = begin; i < begin + slice_; ++i) {
        deltas.push_back({order_[i].first, order_[i].second, add});
      }
    };
    add_slice(k, /*add=*/false);
    if (k > 0) add_slice(k - 1, /*add=*/true);

    trace::Span epoch_span("bench.publish_epoch", /*new_trace=*/true);
    const uint64_t epoch = setup_->store->published() + 1;
    std::unique_ptr<const serve::ServingSnapshot> snap;
    {
      trace::Span s("core.epoch_advance");
      setup_->maintainer->Advance(deltas);
      advance_ms.push_back(s.End() * 1e3);
    }
    {
      trace::Span s("serve.snapshot_assemble");
      snap = Assemble(epoch, setup_->maintainer->artifacts(), setup_->build);
      assemble_ms.push_back(s.End() * 1e3);
    }
    checks_->Register(epoch, snap->content_fingerprint);
    {
      trace::Span s("serve.epoch_store_publish");
      CFNET_CHECK(setup_->store->Publish(std::move(snap)) == epoch);
      store_publish_us.push_back(s.End() * 1e6);
    }
    publish_ms.push_back(epoch_span.End() * 1e3);
  }

  Setup* setup_;
  ResponseChecks* checks_;
  uint64_t* batch_;
  std::vector<std::pair<uint64_t, uint64_t>> order_;
  size_t slice_ = 1;
  int64_t parent_ = -1;
  uint64_t parent_trace_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: started after the members it uses
};

struct Window {
  std::vector<TrafficItem> trace;    // every open-loop request, in order
  std::vector<RequestSample> open;   // their samples, in due order
  ClosedLoopResult latency;          // kLatencyClients closed-loop phases
  ClosedLoopResult capacity;         // kCapacityClients closed-loop phases
  bool cold = false;
  std::vector<double> advance_ms, assemble_ms, store_publish_us, publish_ms;
};

serve::QueryServiceConfig ServiceConfig(bool cold) {
  serve::QueryServiceConfig config;
  config.worker_threads = kWorkers;
  if (!cold) {
    for (serve::ClassPolicy* c :
         {&config.search, &config.recommend, &config.facet}) {
      c->default_deadline_micros = kHotDeadlineMicros;
    }
  }
  return config;
}

void Append(const ClosedLoopResult& from, ClosedLoopResult* to) {
  to->issued += from.issued;
  to->good += from.good;
  to->seconds += from.seconds;
  to->good_per_s.insert(to->good_per_s.end(), from.good_per_s.begin(),
                        from.good_per_s.end());
  to->samples.insert(to->samples.end(), from.samples.begin(),
                     from.samples.end());
}

/// One measured window on a fresh QueryService (empty cache): kRounds
/// rounds of an open-loop segment, a closed-loop latency segment and a
/// closed-loop capacity segment, with the epoch publisher running
/// throughout when cold. Interleaving spreads the phases over the window,
/// so a few seconds of host noise touch a minority of each phase's slices
/// instead of all of one phase.
Window RunWindow(const RunOptions& options, bool cold, Setup* setup,
                 RequestSource* source, ResponseChecks* checks,
                 uint64_t* batch) {
  Window w;
  w.cold = cold;
  serve::QueryService service(setup->store.get(), ServiceConfig(cold));
  const ResponseHook hook = [checks](const serve::QueryRequest& req,
                                     const serve::QueryResponse& resp) {
    checks->OnResponse(req, resp);
  };
  const double rate = cold ? kColdRate : kHotRate;
  const double open_s = options.seconds * kOpenShare / kRounds;
  const double latency_s = options.seconds * kLatencyShare / kRounds;
  const double capacity_s =
      options.seconds * (1 - kOpenShare - kLatencyShare) / kRounds;
  const size_t per_segment = static_cast<size_t>(rate * open_s);
  std::vector<std::vector<TrafficItem>> segments, latency_items,
      capacity_items;
  {
    trace::Span span("bench.make_requests");
    for (int round = 0; round < kRounds; ++round) {
      segments.push_back(source->Take(per_segment));
      latency_items.push_back(source->Take(kClosedRequests));
      capacity_items.push_back(source->Take(kClosedRequests));
    }
  }
  std::unique_ptr<EpochPublisher> publisher;
  if (cold) {
    publisher =
        std::make_unique<EpochPublisher>(setup, checks, options.seed, batch);
  }
  {
    trace::Span span("bench.warmup");
    RunOpenLoop(service,
                source->Take(static_cast<size_t>(rate * kWarmupSeconds)), rate,
                hook);
  }
  for (int round = 0; round < kRounds; ++round) {
    {
      trace::Span span("bench.open_loop");
      const std::vector<RequestSample> samples =
          RunOpenLoop(service, segments[round], rate, hook);
      w.open.insert(w.open.end(), samples.begin(), samples.end());
    }
    {
      trace::Span span("bench.latency_loop");
      Append(RunClosedLoop(service, latency_items[round], kLatencyClients,
                           latency_s, hook),
             &w.latency);
    }
    {
      trace::Span span("bench.capacity_loop");
      Append(RunClosedLoop(service, capacity_items[round], kCapacityClients,
                           capacity_s, hook),
             &w.capacity);
    }
  }
  if (publisher) {
    publisher->Stop();
    w.advance_ms = publisher->advance_ms;
    w.assemble_ms = publisher->assemble_ms;
    w.store_publish_us = publisher->store_publish_us;
    w.publish_ms = publisher->publish_ms;
  }
  for (auto& segment : segments) {
    w.trace.insert(w.trace.end(), std::make_move_iterator(segment.begin()),
                   std::make_move_iterator(segment.end()));
  }
  {
    // Samples of the epoch still current (all of them on the single hot
    // epoch) are re-executed here; the publisher did the earlier epochs.
    trace::Span span("bench.verify_responses");
    Store::Pin pin = setup->store->Acquire();
    checks->Verify({&pin});
  }
  return w;
}

/// A shed, timed-out or 5xx request counts as missing its class deadline.
double ChargedMs(bool cold, bool good, serve::QueryClass c, int64_t ns) {
  const double ms = static_cast<double>(ns) / 1e6;
  if (good) return ms;
  return std::max(
      ms, static_cast<double>(ClassDeadlineMicros(ServiceConfig(cold), c)) /
              1e3);
}

/// p50 and p99 as medians over slices of kSliceRequests consecutive
/// requests, so a burst of host noise moves a few slices' figures, not the
/// reported ones.
struct SlicedLatency {
  std::vector<double> p50, p99;  // per slice
};

SlicedLatency Slice(const std::vector<double>& ms) {
  SlicedLatency out;
  const size_t slices = std::max<size_t>(1, ms.size() / kSliceRequests);
  const size_t per = ms.size() / slices;
  for (size_t i = 0; i < slices; ++i) {
    const std::vector<double> slice(ms.begin() + i * per,
                                    ms.begin() + (i + 1) * per);
    out.p50.push_back(Percentile(slice, 0.5));
    out.p99.push_back(Percentile(slice, 0.99));
  }
  return out;
}

/// Open-loop latencies, each from the request's due time.
SlicedLatency OpenLatency(const Window& w) {
  std::vector<double> ms;
  for (const RequestSample& s : w.open) {
    ms.push_back(ChargedMs(w.cold, s.good(), s.query_class,
                           s.done_ns - s.due_ns));
  }
  return Slice(ms);
}

void PrintSlices(const char* what, const std::vector<double>& values) {
  std::fprintf(stderr, "[perfbench] %s:", what);
  for (double v : values) std::fprintf(stderr, " %.4g", v);
  std::fprintf(stderr, "\n");
}

/// Latency from the closed-loop latency phase, capacity as the median
/// half-second rate of the capacity phase, and the good share of every
/// request of the window.
void SetEndToEnd(const Window& w, Report* report) {
  std::vector<double> ms;
  for (const ClosedSample& s : w.latency.samples) {
    ms.push_back(ChargedMs(w.cold, s.good, s.query_class, s.latency_ns));
  }
  const SlicedLatency latency = Slice(ms);
  int64_t good = w.latency.good + w.capacity.good;
  for (const RequestSample& s : w.open) good += s.good() ? 1 : 0;
  const int64_t issued = static_cast<int64_t>(w.open.size()) +
                         w.latency.issued + w.capacity.issued;
  report->Set("op_p50_ms", Median(latency.p50), "ms");
  report->Set("op_p99_ms", Median(latency.p99), "ms");
  report->Set("throughput_per_s", Median(w.capacity.good_per_s), "1/s");
  report->Set("ok_frac",
              static_cast<double>(good) / static_cast<double>(issued), "frac");
  PrintSlices("latency-phase slice p50 ms", latency.p50);
  PrintSlices("latency-phase slice p99 ms", latency.p99);
  PrintSlices("capacity-phase good/s", w.capacity.good_per_s);
  PrintSlices("open-loop slice p50 ms", OpenLatency(w).p50);
}

void SetEpochMetrics(const Window& w, Report* report) {
  report->Set("core.epoch_advance_ms", Median(w.advance_ms), "ms");
  report->Set("serve.snapshot_assemble_ms", Median(w.assemble_ms), "ms");
  report->Set("serve.epoch_store_publish_us", Median(w.store_publish_us),
              "us");
  report->Set("serve.epoch_publish_ms", Median(w.publish_ms), "ms");
}

double CacheHitFrac(const Window& w) {
  double hits = 0;
  for (const RequestSample& s : w.open) hits += s.cache_hit ? 1 : 0;
  return hits / static_cast<double>(w.open.size());
}

void SetPerLayer(const Window& w, Report* report) {
  const double n = static_cast<double>(w.open.size());
  double shed = 0, timeouts = 0, degraded = 0;
  std::vector<double> queue_us, lag_us;
  std::vector<double> exec_us[3];
  for (const RequestSample& s : w.open) {
    using Outcome = serve::QueryResponse::Outcome;
    shed += s.outcome == Outcome::kShedQueueFull ||
            s.outcome == Outcome::kShedDeadline ||
            s.outcome == Outcome::kShedShutdown;
    timeouts += s.outcome == Outcome::kTimeout;
    degraded += s.good() && s.degraded;
    lag_us.push_back(static_cast<double>(s.submit_ns - s.due_ns) / 1e3);
    if (s.outcome == Outcome::kServed || s.outcome == Outcome::kTimeout) {
      queue_us.push_back(static_cast<double>(s.queue_us));
      if (!s.cache_hit) {
        exec_us[static_cast<int>(s.query_class)].push_back(
            static_cast<double>(s.exec_us));
      }
    }
  }
  const SlicedLatency open = OpenLatency(w);
  report->Set("serve.open_loop_p50_ms", Median(open.p50), "ms");
  report->Set("serve.open_loop_p99_ms", Median(open.p99), "ms");
  report->Set("serve.cache_hit_frac", CacheHitFrac(w), "frac");
  report->Set("serve.shed_frac", shed / n, "frac");
  report->Set("serve.timeout_frac", timeouts / n, "frac");
  report->Set("serve.degraded_frac", degraded / n, "frac");
  report->Set("serve.generator_lag_us.p99", Percentile(lag_us, 0.99), "us");
  report->Set("serve.queue_us.p50", Percentile(queue_us, 0.5), "us");
  report->Set("serve.queue_us.p99", Percentile(queue_us, 0.99), "us");
  for (int c = 0; c < 3; ++c) {
    const std::string name = std::string("serve.exec_us.") +
                             serve::QueryClassName(
                                 static_cast<serve::QueryClass>(c));
    report->Set(name + ".p50", Percentile(exec_us[c], 0.5), "us");
    report->Set(name + ".p99", Percentile(exec_us[c], 0.99), "us");
  }
  if (!w.publish_ms.empty()) SetEpochMetrics(w, report);
}

/// The open-loop trace re-run on one thread through ExecuteQuery against
/// the current epoch: per-endpoint cost without queueing or caching.
void ReplayTrace(const Window& w, Store* store, Report* report) {
  trace::Span span("bench.replay");
  Store::Pin pin = store->Acquire();
  double total_us[kNumEndpoints] = {};
  double count[kNumEndpoints] = {};
  for (const TrafficItem& item : w.trace) {
    trace::Span q("serve.execute_query", /*new_trace=*/true);
    serve::ExecuteQuery(*pin, item.request.endpoint, item.request.params);
    total_us[item.endpoint] += q.End() * 1e6;
    count[item.endpoint] += 1;
  }
  for (int e = 0; e < kNumEndpoints; ++e) {
    report->Set(std::string("serve.query_us.") + EndpointLabel(e),
                count[e] > 0 ? total_us[e] / count[e] : 0, "us");
  }
}

}  // namespace

void RunServeWorkload(const RunOptions& options, bool cold, Report* report) {
  ResponseChecks checks;
  std::vector<double> setup_s, build_ms;
  Setup setup;
  for (size_t i = 0; i < (options.print_golden ? 1 : kSetups); ++i) {
    setup = Setup{};  // free the previous world before building the next
    setup = BuildSetup(&checks);
    setup_s.push_back(setup.total_s);
    build_ms.push_back(
        (setup.full_build_s + setup.assemble_s + setup.publish_s) * 1e3);
  }
  std::unique_ptr<RequestSource> source;
  {
    Store::Pin pin = setup.store->Acquire();
    const Digest digest = {
        {"investors", static_cast<int64_t>(pin->graph.num_left())},
        {"companies", static_cast<int64_t>(pin->graph.num_right())},
        {"edges", static_cast<int64_t>(pin->graph.num_edges())},
        {"projection_edges", static_cast<int64_t>(pin->projection.num_edges())},
        {"fingerprint", static_cast<int64_t>(pin->content_fingerprint)},
    };
    if (options.print_golden) {
      PrintGolden(kGoldenKey, kWorldSeed, digest);
      return;
    }
    CheckGolden(options.golden_path, kGoldenKey, kWorldSeed, digest, report);
    source = std::make_unique<RequestSource>(*pin, options.seed, kWorldSeed,
                                             cold);
  }
  uint64_t batch = 0;

  if (options.trace) trace::SetRecording(false);
  Window w = RunWindow(options, cold, &setup, source.get(), &checks, &batch);
  report->Set("setup_s", Median(setup_s), "s");
  SetEndToEnd(w, report);
  const double untraced_p50_ms = report->metrics["op_p50_ms"].value;
  auto count_ops = [&](const Window& win) {
    report->attempted +=
        static_cast<int64_t>(win.open.size()) + win.latency.issued +
        win.capacity.issued;
    int64_t bad = win.latency.issued - win.latency.good +
                  win.capacity.issued - win.capacity.good;
    for (const RequestSample& s : win.open) bad += s.good() ? 0 : 1;
    report->failed += bad;
  };
  count_ops(w);

  if (options.trace) {
    trace::SetRecording(true);
    {
      trace::Span window("bench.window");
      report->trace_root = window.index();
      w = RunWindow(options, cold, &setup, source.get(), &checks, &batch);
    }
    count_ops(w);
    Report traced;
    SetEndToEnd(w, &traced);
    report->Set("trace.overhead_op_p50_ms",
                traced.metrics["op_p50_ms"].value - untraced_p50_ms, "ms");
    SetPerLayer(w, report);
    ReplayTrace(w, setup.store.get(), report);
    SetCrawlMetrics(setup.crawl, report);
    report->Set("core.compact_s", setup.crawl.compact_s, "s");
    report->Set("core.load_inputs_s", setup.load_s, "s");
    report->Set("core.investor_graph_s", setup.graph_s, "s");
    report->Set("serve.snapshot_build_ms", Median(build_ms), "ms");
    if (!cold) {
      // The Zipf exponent is assumed, not measured: the cache hit share of
      // the same window at other exponents shows how much rests on it.
      trace::SetRecording(false);
      for (const double s : {0.8, 1.2}) {
        std::unique_ptr<RequestSource> skewed;
        {
          Store::Pin pin = setup.store->Acquire();
          skewed = std::make_unique<RequestSource>(*pin, options.seed,
                                                   kWorldSeed,
                                                   /*unique_keys=*/false, s);
        }
        const Window sw = RunWindow(options, cold, &setup, skewed.get(),
                                    &checks, &batch);
        count_ops(sw);
        char name[64];
        std::snprintf(name, sizeof(name), "serve.cache_hit_frac.zipf_%.1f", s);
        report->Set(name, CacheHitFrac(sw), "frac");
      }
      trace::SetRecording(true);
      // The epoch path without query load: a few 1% delta epochs.
      trace::Span span("bench.epoch_attribution");
      EpochPublisher publisher(&setup, &checks, options.seed, &batch);
      std::this_thread::sleep_for(kEpochPeriod * 5 + kEpochPeriod / 2);
      publisher.Stop();
      Window epochs;
      epochs.advance_ms = publisher.advance_ms;
      epochs.assemble_ms = publisher.assemble_ms;
      epochs.store_publish_us = publisher.store_publish_us;
      epochs.publish_ms = publisher.publish_ms;
      SetEpochMetrics(epochs, report);
    }
    report->Set("crawler.scaling_ratio",
                SmallCrawlScalingRatio(setup.crawl, kSmallScale, kWorldSeed,
                                       /*checkpointing=*/false,
                                       /*compact_snapshots=*/false),
                "ratio");
  }

  report->Check(checks.torn() == 0,
                std::to_string(checks.torn()) + " torn responses");
  report->Check(checks.mismatched() == 0,
                std::to_string(checks.mismatched()) + " of " +
                    std::to_string(checks.verified()) +
                    " re-executed responses differ from the served body");
  report->Check(checks.verified() > 0, "no served response was re-executed");
  if (options.trace) {
    report->Set("serve.torn_responses", static_cast<double>(checks.torn()),
                "count");
    report->Set("serve.epochs_seen", static_cast<double>(checks.epochs_seen()),
                "count");
    report->Set("serve.verified_responses",
                static_cast<double>(checks.verified()), "count");
    report->Set("serve.unverified_samples",
                static_cast<double>(checks.unverified()), "count");
  }
  std::fprintf(stderr,
               "[perfbench] %s: open loop %zu requests, latency phase %lld, "
               "capacity phase %lld (%.0f/s good), %lld verified, %lld torn, "
               "%zu epochs\n",
               cold ? "serve_cold" : "serve_hot", w.open.size(),
               static_cast<long long>(w.latency.issued),
               static_cast<long long>(w.capacity.issued),
               Median(w.capacity.good_per_s),
               static_cast<long long>(checks.verified()),
               static_cast<long long>(checks.torn()),
               static_cast<size_t>(setup.store->published()));
}

}  // namespace cfnet::perfbench
