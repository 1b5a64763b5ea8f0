#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common.h"

namespace cfnet::perfbench::trace {
namespace {

struct SpanRow {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t trace_id = 0;
};

// The table is sized once by Enable() before any worker thread starts and
// read by Finish() after they all joined; each slot is written only by the
// thread that claimed it.
std::unique_ptr<SpanRow[]> g_table;
size_t g_capacity = 0;
std::atomic<size_t> g_next{0};
std::atomic<size_t> g_dropped{0};
std::atomic<uint64_t> g_next_trace{1};
std::atomic<bool> g_enabled{false};

thread_local int64_t t_current = -1;
thread_local uint64_t t_trace = 0;

int64_t Claim() {
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  return static_cast<int64_t>(i);
}

}  // namespace

void Enable(size_t capacity) {
  g_table = std::make_unique<SpanRow[]>(capacity);
  g_capacity = capacity;
  g_enabled = true;
}

void SetRecording(bool on) { g_enabled = on && g_table != nullptr; }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NewTraceId() {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
               int64_t parent, uint64_t trace_id) {
  if (!Enabled()) return -1;
  const int64_t i = Claim();
  if (i >= 0) g_table[i] = SpanRow{name, start_ns, end_ns, parent, trace_id};
  return i;
}

Span::Span(const char* name, bool new_trace)
    : name_(name), start_ns_(NowNanos()) {
  if (!Enabled()) return;
  recorded_ = true;
  saved_parent_ = t_current;
  saved_trace_ = t_trace;
  trace_id_ = t_current >= 0 && !new_trace ? t_trace : NewTraceId();
  index_ = Claim();
  if (index_ >= 0) {
    g_table[index_] = SpanRow{name_, start_ns_, start_ns_, saved_parent_,
                              trace_id_};
    t_current = index_;
  }
  t_trace = trace_id_;
}

double Span::End() {
  if (end_ns_ < 0) {
    end_ns_ = NowNanos();
    if (recorded_) {
      if (index_ >= 0) g_table[index_].end_ns = end_ns_;
      t_current = saved_parent_;
      t_trace = saved_trace_;
    }
  }
  return Seconds();
}

double Span::Seconds() const {
  const int64_t end = end_ns_ >= 0 ? end_ns_ : NowNanos();
  return static_cast<double>(end - start_ns_) / 1e9;
}

int64_t CurrentSpan() { return t_current; }
uint64_t CurrentTraceId() { return t_trace; }

void AdoptParent(int64_t parent, uint64_t trace_id) {
  t_current = parent;
  t_trace = trace_id;
}

Summary Finish(const std::string& path, int64_t root) {
  Summary summary;
  if (g_table == nullptr) return summary;
  const size_t n = std::min(g_next.load(), g_capacity);
  summary.spans = n;
  summary.dropped = g_dropped.load();

  // Self time = duration minus the union of the child intervals clipped to
  // the span, so concurrent children (requests on several workers) are not
  // double-subtracted.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(n);
  for (size_t i = 0; i < n; ++i) {
    const SpanRow& r = g_table[i];
    if (r.parent >= 0 && static_cast<size_t>(r.parent) < n) {
      children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
  }
  std::vector<int64_t> self_ns(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const SpanRow& r = g_table[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = r.start_ns;
    for (auto [s, e] : kids) {
      s = std::max(s, cursor);
      e = std::min(e, r.end_ns);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self_ns[i] = (r.end_ns - r.start_ns) - covered;
  }
  if (root >= 0 && static_cast<size_t>(root) < n) {
    summary.root_s =
        static_cast<double>(g_table[root].end_ns - g_table[root].start_ns) /
        1e9;
    // A parent is always opened, and so indexed, before its children.
    std::vector<bool> in_subtree(n, false);
    int64_t unattributed_ns = 0;
    for (size_t i = static_cast<size_t>(root); i < n; ++i) {
      const int64_t parent = g_table[i].parent;
      in_subtree[i] = i == static_cast<size_t>(root) ||
                      (parent >= 0 && in_subtree[parent]);
      if (in_subtree[i] && std::strncmp(g_table[i].name, "bench.", 6) == 0) {
        unattributed_ns += self_ns[i];
      }
    }
    summary.root_unattributed_s = static_cast<double>(unattributed_ns) / 1e9;
  }

  if (!path.empty()) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out != nullptr) {
      const int64_t origin = n > 0 ? g_table[0].start_ns : 0;
      for (size_t i = 0; i < n; ++i) {
        const SpanRow& r = g_table[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                     "\"trace\":%llu,\"start_us\":%.3f,\"end_us\":%.3f,"
                     "\"self_us\":%.3f}\n",
                     i, r.name, static_cast<long long>(r.parent),
                     static_cast<unsigned long long>(r.trace_id),
                     static_cast<double>(r.start_ns - origin) / 1e3,
                     static_cast<double>(r.end_ns - origin) / 1e3,
                     static_cast<double>(self_ns[i]) / 1e3);
      }
      std::fclose(out);
    } else {
      std::fprintf(stderr, "[perfbench] cannot write trace to %s\n",
                   path.c_str());
    }
  }
  return summary;
}

}  // namespace cfnet::perfbench::trace
