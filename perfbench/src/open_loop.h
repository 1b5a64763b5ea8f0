// Load generators of the serve workloads, timed by the benchmark itself
// (serve's power-of-two LatencyHistogram is too coarse to show changes
// under 2x).
//
// Open loop: one thread submits requests on a fixed schedule regardless of
// completions — independent users. Each request is timed from the moment it
// was due, so a stall charges its wait to every request behind it, and the
// generator's own lateness is kept per request. Every sample is kept.
//
// Closed loop: clients that each send their next request only after the
// previous answer — used to measure latency at the service boundary (one
// client per worker) and capacity (enough clients to keep every worker
// busy).
#ifndef CFNET_PERFBENCH_OPEN_LOOP_H_
#define CFNET_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/service.h"
#include "traffic.h"

namespace cfnet::perfbench {

/// One open-loop request, as seen from outside the service.
struct RequestSample {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;  // when SubmitAsync was entered
  int64_t done_ns = 0;    // when the completion callback ran
  int status = 0;
  serve::QueryResponse::Outcome outcome = serve::QueryResponse::Outcome::kServed;
  serve::QueryClass query_class = serve::QueryClass::kSearch;
  bool cache_hit = false;
  bool degraded = false;
  int64_t queue_us = 0;
  int64_t exec_us = 0;
  uint64_t trace_id = 0;

  /// Served within its deadline with a non-5xx answer.
  bool good() const {
    return outcome == serve::QueryResponse::Outcome::kServed && status < 500;
  }
};

/// Sees every response (on the thread that completed it).
using ResponseHook =
    std::function<void(const serve::QueryRequest&, const serve::QueryResponse&)>;

/// The class default deadline of `c` under `config`.
int64_t ClassDeadlineMicros(const serve::QueryServiceConfig& config,
                            serve::QueryClass c);

/// Submits `trace[i]` at start + i / rate, then waits for every
/// completion. Latency counts from the due time; the service's class
/// deadline counts from submission.
std::vector<RequestSample> RunOpenLoop(serve::QueryService& service,
                                       const std::vector<TrafficItem>& trace,
                                       double rate_per_s,
                                       const ResponseHook& hook);

/// One closed-loop request: its latency from submission to completion.
struct ClosedSample {
  int64_t done_ns = 0;
  int64_t latency_ns = 0;
  serve::QueryClass query_class = serve::QueryClass::kSearch;
  bool good = false;  // served within deadline, non-5xx
};

struct ClosedLoopResult {
  int64_t issued = 0;
  int64_t good = 0;
  double seconds = 0;
  /// Good responses per second in each consecutive half-second slice.
  std::vector<double> good_per_s;
  /// Every request, in completion order.
  std::vector<ClosedSample> samples;
};

/// `clients` closed-loop clients with no think time for `seconds`, taking
/// their requests in turn from `items` (cycled). A client sends its next
/// request from the completion callback of its previous one, so the
/// clients need no threads of their own and the workers never wait for a
/// client to be scheduled; a client whose request is shed stops.
ClosedLoopResult RunClosedLoop(serve::QueryService& service,
                               const std::vector<TrafficItem>& items,
                               int clients, double seconds,
                               const ResponseHook& hook);

}  // namespace cfnet::perfbench

#endif  // CFNET_PERFBENCH_OPEN_LOOP_H_
