#ifndef CFNET_DATAFLOW_NARROW_CHAIN_H_
#define CFNET_DATAFLOW_NARROW_CHAIN_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "dataflow/context.h"

namespace cfnet::dataflow::internal_chain {

/// A fused chain of narrow operators (Map/Filter/FlatMap) over a type-erased
/// source dataset. Each operator is a batch kernel: a tight, inlinable loop
/// over its parent's output buffer (or directly over the source partition for
/// the first operator), so fusion never pays per-element virtual dispatch.
/// Extending the chain composes kernels; executing it runs the whole chain
/// once per morsel with no intermediate partition materialization.
template <typename T>
struct NarrowChain {
  /// Forces the source dataset's materialization (thread-safe, memoized).
  std::function<void()> materialize_source;
  /// Per-partition element counts of the materialized source.
  std::function<std::vector<size_t>()> source_sizes;
  /// Fills `out` (assumed empty) with the chain's output for source rows
  /// [begin, end) of partition p.
  std::function<void(size_t p, size_t begin, size_t end, std::vector<T>& out)>
      run;
  /// Non-null only on a bare source chain: direct access to partition p of
  /// the materialized source, letting the first fused operator loop over
  /// source rows in place instead of through a copied batch.
  std::function<const std::vector<T>*(size_t p)> source_part;
  size_t num_partitions = 0;
  /// Number of narrow operators fused into this chain (0 for a bare source).
  size_t fused_ops = 0;
};

/// Executes a fused narrow stage morsel-by-morsel: splits source partitions
/// into fixed-size morsels, runs the whole chain over each morsel on the
/// context pool (dynamic claiming balances skewed partitions), then
/// reassembles per-partition outputs in source order. Exactly one engine
/// stage regardless of chain length.
template <typename T>
std::vector<std::vector<T>> ExecuteNarrowStage(ExecutionContext& ctx,
                                               const NarrowChain<T>& chain) {
  auto start = std::chrono::steady_clock::now();
  chain.materialize_source();
  const std::vector<size_t> sizes = chain.source_sizes();
  const size_t np = sizes.size();

  struct Morsel {
    size_t p;
    size_t begin;
    size_t end;
  };
  // Morsel splitting exists to let idle workers steal slices of skewed
  // partitions; with a single worker (or no partition above the morsel
  // size) it would only add a reassembly pass, so each partition stays one
  // morsel and its chunk is moved into place without copying.
  const size_t morsel_size = ctx.parallelism() > 1
                                 ? std::max<size_t>(1, ctx.morsel_size())
                                 : static_cast<size_t>(-1);
  std::vector<Morsel> morsels;
  std::vector<size_t> first_chunk(np + 1, 0);
  for (size_t p = 0; p < np; ++p) {
    first_chunk[p] = morsels.size();
    for (size_t b = 0; b < sizes[p]; b += morsel_size) {
      morsels.push_back({p, b, std::min(sizes[p], b + morsel_size)});
      if (sizes[p] - b <= morsel_size) break;  // avoid b += overflow
    }
  }
  first_chunk[np] = morsels.size();

  std::vector<std::vector<T>> chunks(morsels.size());
  ctx.pool().RunBulk(morsels.size(), [&](size_t m) {
    const Morsel& mo = morsels[m];
    // Fill a worker-local vector: neighbouring chunks[] headers share cache
    // lines, and concurrent push_backs into them would false-share.
    std::vector<T> out;
    chain.run(mo.p, mo.begin, mo.end, out);
    chunks[m] = std::move(out);
  });

  std::vector<std::vector<T>> result(np);
  ctx.pool().RunBulk(np, [&](size_t p) {
    const size_t fc = first_chunk[p];
    const size_t lc = first_chunk[p + 1];
    if (lc == fc) return;
    if (lc - fc == 1) {
      result[p] = std::move(chunks[fc]);
      return;
    }
    size_t total = 0;
    for (size_t c = fc; c < lc; ++c) total += chunks[c].size();
    result[p].reserve(total);
    for (size_t c = fc; c < lc; ++c) {
      result[p].insert(result[p].end(),
                       std::make_move_iterator(chunks[c].begin()),
                       std::make_move_iterator(chunks[c].end()));
    }
  });

  auto elapsed = std::chrono::steady_clock::now() - start;
  EngineMetrics& m = ctx.metrics();
  m.stages_run.fetch_add(1, std::memory_order_relaxed);
  m.tasks_launched.fetch_add(morsels.size(), std::memory_order_relaxed);
  m.fused_ops.fetch_add(chain.fused_ops, std::memory_order_relaxed);
  m.morsels_run.fetch_add(morsels.size(), std::memory_order_relaxed);
  m.stage_wall_ns.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      std::memory_order_relaxed);
  return result;
}

}  // namespace cfnet::dataflow::internal_chain

#endif  // CFNET_DATAFLOW_NARROW_CHAIN_H_
