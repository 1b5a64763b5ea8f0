// Span recorder for the traced benchmark run. Spans are recorded by the
// benchmark itself around its calls into each cfnet layer (nothing inside
// src/ is instrumented): name "<layer>.<call>", start, end, the span that
// caused it, and a trace id shared by every span of one request or unit of
// work. Spans live in a preallocated in-memory table and are written out
// once, with self times, when the run ends.
#ifndef CFNET_PERFBENCH_TRACE_H_
#define CFNET_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

namespace cfnet::perfbench::trace {

/// Allocates a table of `capacity` spans (spans past it are counted as
/// dropped) and starts recording. Call once, before any thread records.
void Enable(size_t capacity);
/// Pauses / resumes recording after Enable (e.g. for the untraced window of
/// a traced run). Toggle only while no Span is open.
void SetRecording(bool on);
bool Enabled();

/// A fresh trace id (unique within the run).
uint64_t NewTraceId();

/// Records a span whose interval was measured elsewhere (e.g. a request's
/// queue wait reported by the service). Returns its index, or -1 when not
/// recording.
int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
               int64_t parent, uint64_t trace_id);

/// RAII span: always measures its own duration (workloads read it as their
/// timer), and is recorded only while tracing is enabled. Its parent is the
/// innermost open Span on this thread; a span opened with no open parent,
/// or with `new_trace`, starts a new trace (one unit of work or request).
class Span {
 public:
  explicit Span(const char* name, bool new_trace = false);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double End();
  double Seconds() const;
  int64_t index() const { return index_; }
  uint64_t trace_id() const { return trace_id_; }

 private:
  const char* name_;
  int64_t start_ns_;
  int64_t end_ns_ = -1;
  int64_t index_ = -1;
  int64_t saved_parent_ = -1;
  uint64_t trace_id_ = 0;
  uint64_t saved_trace_ = 0;
  bool recorded_ = false;
};

/// Index of the innermost open Span on this thread (-1 = none).
int64_t CurrentSpan();
uint64_t CurrentTraceId();
/// Makes `parent` the enclosing span of this thread's next Spans — for a
/// thread started inside a span opened on another thread.
void AdoptParent(int64_t parent, uint64_t trace_id);

struct Summary {
  size_t spans = 0;
  size_t dropped = 0;
  /// Self time (time not covered by a child span) of the benchmark's own
  /// "bench.*" spans in `root`'s subtree, `root` included, summed over
  /// threads: time inside the measured interval that no layer call covers.
  /// Deliberate waits are named "idle.*" and not counted.
  double root_unattributed_s = 0;
  double root_s = 0;
};

/// Computes self times, writes every span as one JSON line to `path` (when
/// non-empty), and summarizes coverage of span `root`.
Summary Finish(const std::string& path, int64_t root);

}  // namespace cfnet::perfbench::trace

#endif  // CFNET_PERFBENCH_TRACE_H_
