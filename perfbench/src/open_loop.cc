#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include <sys/prctl.h>

#include "common.h"
#include "trace.h"
#include "util/logging.h"

namespace cfnet::perfbench {
namespace {

/// Sleep until shortly before `due_ns`, then spin: even with a 1 ns timer
/// slack a sleep wakes a few microseconds late, which would show up as
/// generator lag.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 30'000;
  const int64_t now = NowNanos();
  if (due_ns - now > 2 * kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNanos() < due_ns) {
  }
}

const char* ExecSpanName(const RequestSample& s) {
  if (s.cache_hit) return "serve.cache_hit";
  switch (s.query_class) {
    case serve::QueryClass::kSearch:
      return "serve.exec.search";
    case serve::QueryClass::kRecommend:
      return "serve.exec.recommend";
    case serve::QueryClass::kFacet:
      return "serve.exec.facet";
  }
  return "serve.exec";
}

/// Spans of one finished request, under `root`: the request from due to
/// done, and inside it the queue wait and execution the service reported.
void RecordRequestSpans(const RequestSample& s, int64_t root) {
  const int64_t req = trace::Record("serve.request", s.due_ns, s.done_ns, root,
                                    s.trace_id);
  const int64_t dequeued = s.submit_ns + s.queue_us * 1000;
  trace::Record("serve.queue", s.submit_ns, dequeued, req, s.trace_id);
  trace::Record(ExecSpanName(s), dequeued, dequeued + s.exec_us * 1000, req,
                s.trace_id);
}

}  // namespace

int64_t ClassDeadlineMicros(const serve::QueryServiceConfig& config,
                            serve::QueryClass c) {
  switch (c) {
    case serve::QueryClass::kSearch:
      return config.search.default_deadline_micros;
    case serve::QueryClass::kRecommend:
      return config.recommend.default_deadline_micros;
    case serve::QueryClass::kFacet:
      return config.facet.default_deadline_micros;
  }
  return config.search.default_deadline_micros;
}

std::vector<RequestSample> RunOpenLoop(serve::QueryService& service,
                                       const std::vector<TrafficItem>& trace,
                                       double rate_per_s,
                                       const ResponseHook& hook) {
  // The default 50 us timer slack would make every sleep that late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<RequestSample> samples(trace.size());
  std::atomic<size_t> completed{0};
  const int64_t root = trace::CurrentSpan();
  const bool tracing = trace::Enabled();
  const double gap_ns = 1e9 / rate_per_s;
  const int64_t start = NowNanos() + 1'000'000;

  for (size_t i = 0; i < trace.size(); ++i) {
    RequestSample& s = samples[i];
    s.due_ns = start + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
    {
      trace::Span wait("idle.generator_wait");
      WaitUntil(s.due_ns);
    }
    // The request carries no deadline of its own, so the service applies
    // its class default from the moment it is submitted: the generator's
    // lateness adds to the measured latency but cannot fail a request.
    serve::QueryRequest request = trace[i].request;
    s.trace_id = tracing ? trace::NewTraceId() : 0;
    s.submit_ns = NowNanos();
    service.SubmitAsync(std::move(request), [&, i](serve::QueryResponse resp) {
      RequestSample& r = samples[i];
      r.done_ns = NowNanos();
      r.status = resp.status;
      r.outcome = resp.outcome;
      r.query_class = resp.query_class;
      r.cache_hit = resp.cache_hit;
      r.degraded = resp.degraded;
      r.queue_us = resp.queue_micros;
      r.exec_us = resp.exec_micros;
      if (hook) hook(trace[i].request, resp);
      if (tracing) RecordRequestSpans(r, root);
      completed.fetch_add(1, std::memory_order_release);
    });
    if (tracing) {
      trace::Record("serve.submit_async", s.submit_ns, NowNanos(), root,
                    s.trace_id);
    }
  }
  // Every request has a deadline, so completions arrive within the largest
  // class deadline plus one execution; a minute means the service hung.
  const int64_t give_up = NowNanos() + 60'000'000'000;
  while (completed.load(std::memory_order_acquire) < trace.size()) {
    CFNET_CHECK(NowNanos() < give_up) << "open-loop requests never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return samples;
}

namespace {

/// State shared by the closed-loop clients and their completion callbacks.
class ClosedLoop {
 public:
  ClosedLoop(serve::QueryService& service, const std::vector<TrafficItem>& items,
             int clients, double seconds, const ResponseHook& hook)
      : service_(service),
        items_(items),
        hook_(hook),
        slices_(std::max<size_t>(
            1, static_cast<size_t>(seconds * 1e9 / kSliceNs))),
        good_in_slice_(slices_),
        clients_(clients),
        per_client_(static_cast<size_t>(clients)),
        root_(trace::CurrentSpan()),
        tracing_(trace::Enabled()) {}

  ClosedLoopResult Run() {
    CFNET_CHECK(!items_.empty()) << "closed loop without requests";
    start_ = NowNanos();
    stop_ = start_ + static_cast<int64_t>(slices_) * kSliceNs;
    active_.store(clients_, std::memory_order_relaxed);
    for (int c = 0; c < clients_; ++c) Send(c);
    const int64_t give_up = stop_ + 60'000'000'000;
    while (active_.load(std::memory_order_acquire) > 0) {
      CFNET_CHECK(NowNanos() < give_up) << "closed-loop requests never completed";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ClosedLoopResult result{issued_.load(), good_.load(), SecondsSince(start_),
                            {}};
    for (const auto& n : good_in_slice_) {
      result.good_per_s.push_back(static_cast<double>(n.load()) * 1e9 /
                                  static_cast<double>(kSliceNs));
    }
    for (const std::vector<ClosedSample>& samples : per_client_) {
      result.samples.insert(result.samples.end(), samples.begin(),
                            samples.end());
    }
    std::sort(result.samples.begin(), result.samples.end(),
              [](const ClosedSample& a, const ClosedSample& b) {
                return a.done_ns < b.done_ns;
              });
    return result;
  }

 private:
  static constexpr int64_t kSliceNs = 500'000'000;

  void Send(int client) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    const TrafficItem& item = items_[i % items_.size()];
    const uint64_t trace_id = tracing_ ? trace::NewTraceId() : 0;
    const int64_t submit_ns = NowNanos();
    service_.SubmitAsync(item.request, [this, client, &item, trace_id,
                                        submit_ns](serve::QueryResponse resp) {
      const int64_t done_ns = NowNanos();
      if (tracing_) {
        trace::Record("serve.call", submit_ns, done_ns, root_, trace_id);
      }
      if (hook_) hook_(item.request, resp);
      issued_.fetch_add(1, std::memory_order_relaxed);
      const bool good = resp.served() && resp.status < 500;
      // A client's callbacks run one after another, so its own vector
      // needs no lock.
      per_client_[static_cast<size_t>(client)].push_back(
          {done_ns, done_ns - submit_ns, resp.query_class, good});
      if (good) {
        good_.fetch_add(1, std::memory_order_relaxed);
        const size_t slice = static_cast<size_t>((done_ns - start_) / kSliceNs);
        if (slice < slices_) {
          good_in_slice_[slice].fetch_add(1, std::memory_order_relaxed);
        }
      }
      // A shed request may be answered inside SubmitAsync itself; resending
      // from here could then recurse without bound, so the client stops.
      if (resp.outcome != serve::QueryResponse::Outcome::kShedQueueFull &&
          resp.outcome != serve::QueryResponse::Outcome::kShedDeadline &&
          resp.outcome != serve::QueryResponse::Outcome::kShedShutdown &&
          done_ns < stop_) {
        Send(client);
      } else {
        active_.fetch_sub(1, std::memory_order_release);
      }
    });
  }

  serve::QueryService& service_;
  const std::vector<TrafficItem>& items_;
  const ResponseHook& hook_;
  const size_t slices_;
  std::vector<std::atomic<int64_t>> good_in_slice_;
  const int clients_;
  std::vector<std::vector<ClosedSample>> per_client_;
  const int64_t root_;
  const bool tracing_;
  int64_t start_ = 0;
  int64_t stop_ = 0;
  std::atomic<size_t> next_{0};
  std::atomic<int> active_{0};
  std::atomic<int64_t> issued_{0};
  std::atomic<int64_t> good_{0};
};

}  // namespace

ClosedLoopResult RunClosedLoop(serve::QueryService& service,
                               const std::vector<TrafficItem>& items,
                               int clients, double seconds,
                               const ResponseHook& hook) {
  return ClosedLoop(service, items, clients, seconds, hook).Run();
}

}  // namespace cfnet::perfbench
