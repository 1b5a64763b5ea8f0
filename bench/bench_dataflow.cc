// MiniSpark (dataflow substrate) throughput: the operators the paper's
// analyses are built from, measured standalone with google-benchmark, plus
// a fixed set of engine workloads (fused narrow chain, skewed Distinct
// shuffle) whose results are written as machine-readable JSON for
// before/after comparison (--json=PATH, default BENCH_dataflow.json;
// --records=N sets the workload size).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dataflow/dataset.h"
#include "json/json.h"
#include "util/flags.h"

namespace cfnet::bench {
namespace {

using dataflow::Dataset;
using dataflow::ExecutionContext;

std::shared_ptr<ExecutionContext> Ctx() {
  static auto ctx = std::make_shared<ExecutionContext>();
  return ctx;
}

std::vector<int64_t> Numbers(size_t n) {
  std::vector<int64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

void BM_Map(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> data = Numbers(n);
  for (auto _ : state) {
    auto out = Dataset<int64_t>::FromVector(Ctx(), data)
                   .Map([](const int64_t& x) { return x * 2 + 1; })
                   .Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Map)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_FilterChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> data = Numbers(n);
  for (auto _ : state) {
    auto out = Dataset<int64_t>::FromVector(Ctx(), data)
                   .Filter([](const int64_t& x) { return x % 2 == 0; })
                   .Map([](const int64_t& x) { return x / 2; })
                   .Filter([](const int64_t& x) { return x % 3 == 0; })
                   .Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FilterChain)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_LeftOuterJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::pair<int64_t, int64_t>> left;
  std::vector<std::pair<int64_t, int64_t>> right;
  for (size_t i = 0; i < n; ++i) {
    left.emplace_back(static_cast<int64_t>(i), static_cast<int64_t>(i));
    if (i % 2 == 0) {
      right.emplace_back(static_cast<int64_t>(i), static_cast<int64_t>(-i));
    }
  }
  for (auto _ : state) {
    auto out = LeftOuterJoin(
                   Dataset<std::pair<int64_t, int64_t>>::FromVector(Ctx(), left),
                   Dataset<std::pair<int64_t, int64_t>>::FromVector(Ctx(), right))
                   .Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_LeftOuterJoin)->Arg(100000)->Arg(500000)
    ->Unit(benchmark::kMillisecond);

void BM_Distinct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back(static_cast<int64_t>(i % (n / 4)));
  }
  for (auto _ : state) {
    auto out = Dataset<int64_t>::FromVector(Ctx(), data).Distinct().Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Distinct)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_ScalingWithThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  auto ctx = std::make_shared<ExecutionContext>(threads);
  std::vector<int64_t> data = Numbers(2000000);
  for (auto _ : state) {
    auto out = Dataset<int64_t>::FromVector(ctx, data)
                   .Map([](const int64_t& x) {
                     // A mildly expensive kernel so threading matters.
                     int64_t acc = x;
                     for (int k = 0; k < 20; ++k) acc = acc * 6364136223846793005ll + 1;
                     return acc;
                   })
                   .Reduce([](int64_t a, int64_t b) { return a ^ b; }, 0);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 2000000);
}
BENCHMARK(BM_ScalingWithThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- measured engine workloads (JSON output) ------------------------------

/// Times `fn` (one warmup + `reps` timed runs) and snapshots the engine
/// metric deltas of a single run.
struct Measured {
  double ms_per_rep = 0;
  uint64_t stages_run = 0;
  uint64_t fused_ops = 0;
  uint64_t morsels_run = 0;
  double stage_wall_ms = 0;
};

template <typename F>
Measured Measure(ExecutionContext& ctx, F&& fn, int reps) {
  fn();  // warmup (also materializes memoized sources)
  ctx.metrics().Reset();
  fn();
  Measured m;
  m.stages_run = ctx.metrics().stages_run.load();
  m.fused_ops = ctx.metrics().fused_ops.load();
  m.morsels_run = ctx.metrics().morsels_run.load();
  m.stage_wall_ms =
      static_cast<double>(ctx.metrics().stage_wall_ns.load()) / 1e6;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  auto t1 = std::chrono::steady_clock::now();
  m.ms_per_rep =
      std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
  return m;
}

/// Runs the fixed engine workloads and writes one JSON document. Sources are
/// materialized before timing so each rep measures the engine work (narrow
/// pipeline, shuffle), not the cost of copying the input vector.
void RunMeasuredWorkloads(const cfnet::FlagParser& flags) {
  const size_t n = static_cast<size_t>(flags.GetInt("records", 2000000));
  const std::string path = flags.GetString("json", "BENCH_dataflow.json");
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  auto ctx = std::make_shared<ExecutionContext>();

  json::Json doc = json::Json::MakeObject();
  doc.Set("bench", "bench_dataflow");
  doc.Set("records", static_cast<int64_t>(n));
  doc.Set("parallelism", static_cast<int64_t>(ctx->parallelism()));
  doc.Set("morsel_size", static_cast<int64_t>(ctx->morsel_size()));
  json::Json workloads = json::Json::MakeArray();

  auto emit = [&workloads, n](const std::string& name, const Measured& m) {
    json::Json w = json::Json::MakeObject();
    w.Set("name", name);
    w.Set("ms_per_rep", m.ms_per_rep);
    w.Set("records_per_sec", m.ms_per_rep > 0
                                 ? static_cast<double>(n) / m.ms_per_rep * 1e3
                                 : 0.0);
    w.Set("stages_run", static_cast<int64_t>(m.stages_run));
    w.Set("fused_ops", static_cast<int64_t>(m.fused_ops));
    w.Set("morsels_run", static_cast<int64_t>(m.morsels_run));
    w.Set("stage_wall_ms", m.stage_wall_ms);
    workloads.Append(std::move(w));
    std::printf("%-22s %8.2f ms  %7.1f Mrec/s  (stages=%llu fused_ops=%llu "
                "morsels=%llu)\n",
                name.c_str(), m.ms_per_rep, n / m.ms_per_rep / 1e3,
                static_cast<unsigned long long>(m.stages_run),
                static_cast<unsigned long long>(m.fused_ops),
                static_cast<unsigned long long>(m.morsels_run));
  };

  Section("Measured engine workloads");

  {
    auto src = Dataset<int64_t>::FromVector(ctx, Numbers(n));
    src.Count();
    emit("map_filter_chain", Measure(*ctx, [&src]() {
      auto c = src.Map([](const int64_t& x) { return x * 3 + 1; })
                   .Filter([](const int64_t& x) { return x % 2 == 0; })
                   .Map([](const int64_t& x) { return x / 2; })
                   .Count();
      benchmark::DoNotOptimize(c);
    }, reps));
  }

  {
    // 90% of the records hit 100 hot keys: stresses shuffle skew handling.
    std::vector<int64_t> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      keys.push_back((i % 10 != 0) ? static_cast<int64_t>(i % 100)
                                   : static_cast<int64_t>(1000 + i % 100000));
    }
    auto src = Dataset<int64_t>::FromVector(ctx, std::move(keys));
    src.Count();
    emit("skewed_distinct", Measure(*ctx, [&src]() {
      auto c = src.Map([](const int64_t& k) { return k * 2; })
                   .Distinct()
                   .Count();
      benchmark::DoNotOptimize(c);
    }, reps));
  }

  doc.Set("workloads", std::move(workloads));
  WriteJsonDoc(path, doc);
}

}  // namespace
}  // namespace cfnet::bench

int main(int argc, char** argv) {
  cfnet::FlagParser flags(argc, argv);
  cfnet::bench::RunMeasuredWorkloads(flags);
  cfnet::bench::RunBenchmarks(argc, argv);
  return 0;
}
