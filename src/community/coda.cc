#include "community/coda.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace cfnet::community {
namespace {

constexpr double kMinDot = 1e-10;
/// Cap on a neighbor's gradient weight 1 / expm1(dot) (reached at kMinDot).
constexpr double kMaxWeight = 1.0 / kMinDot;

/// Rows a worker claims at a time. Contiguous chunks from a shared counter
/// keep every worker busy on heavy-tailed degrees; the chunk size only
/// affects scheduling, never results.
constexpr size_t kRowChunk = 16;

/// Per-worker buffers for one row update, sized once for the maximum degree
/// on either side so the row loop never reallocates (degree-skewed graphs
/// used to churn `gather` on every high-degree row). `gather` holds the
/// neighbor rows copied contiguously followed by the row's `rest` vector
/// ((count + 1) * c doubles), so one batched dot call streams sequential
/// memory instead of chasing a pointer per neighbor; `dots` holds one dot
/// per gathered row.
struct RowScratch {
  std::vector<double> gather;
  std::vector<double> dots;
  std::vector<double> nbr_sum;
  std::vector<double> grad;
  std::vector<double> candidate;

  RowScratch(int c, size_t max_degree)
      : gather((max_degree + 1) * static_cast<size_t>(c)),
        dots(max_degree + 1),
        nbr_sum(static_cast<size_t>(c)),
        grad(static_cast<size_t>(c)),
        candidate(static_cast<size_t>(c)) {}
};

/// sum_i log(1 - exp(-max(dots[i], kMinDot))), folded in row order — the
/// edge term of a row's local objective.
double SumLogEdgeProb(const double* dots, size_t count) {
  double sum = 0;
  for (size_t i = 0; i < count; ++i) {
    double d = dots[i];
    if (d < kMinDot) d = kMinDot;
    sum += std::log1p(-std::exp(-d));
  }
  return sum;
}

}  // namespace

namespace {

/// Mean factor value whose dot products match the graph density — the
/// shared initialization scale of the cold and warm paths.
double InitMean(const graph::BipartiteGraph& g, int c) {
  const double density =
      static_cast<double>(g.num_edges()) /
      (static_cast<double>(g.num_left()) * static_cast<double>(g.num_right()));
  return std::sqrt(std::max(density, 1e-12) / static_cast<double>(c));
}

/// Stateless per-cell jitter in [0.5, 1.5) for warm-start re-init: unlike
/// the cold path's sequential Rng draws, every cell hashes independently,
/// so which rows get re-initialized cannot perturb the others.
double HashJitter(uint64_t seed, uint64_t cell) {
  const uint64_t bits = Mix64(seed ^ (cell + 0x9e3779b97f4a7c15ull));
  return 0.5 + static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

CodaResult Coda::Fit(const graph::BipartiteGraph& g) const {
  const size_t nl = g.num_left();
  const size_t nr = g.num_right();
  const int c = std::max(1, config_.num_communities);
  if (nl == 0 || nr == 0 || g.num_edges() == 0) {
    CodaResult result;
    result.investor_communities.num_nodes = nl;
    result.company_communities.num_nodes = nr;
    return result;
  }

  std::vector<double> f(nl * static_cast<size_t>(c));
  std::vector<double> h(nr * static_cast<size_t>(c));

  // Init so that an average dot product matches the graph density.
  const double init_mean = InitMean(g, c);
  Rng rng(config_.seed);
  for (double& x : f) x = init_mean * rng.Uniform(0.5, 1.5);
  for (double& x : h) x = init_mean * rng.Uniform(0.5, 1.5);
  return FitFrom(g, std::move(f), std::move(h));
}

CodaResult Coda::FitWarm(const graph::BipartiteGraph& g,
                         const CodaWarmStart& warm) const {
  const size_t nl = g.num_left();
  const size_t nr = g.num_right();
  const int c = std::max(1, config_.num_communities);
  if (warm.previous == nullptr || warm.previous->num_factors != c) {
    return Fit(g);  // unusable warm start
  }
  if (nl == 0 || nr == 0 || g.num_edges() == 0) {
    CodaResult result;
    result.investor_communities.num_nodes = nl;
    result.company_communities.num_nodes = nr;
    return result;
  }
  const size_t cs = static_cast<size_t>(c);
  const double init_mean = InitMean(g, c);
  const CodaResult& prev = *warm.previous;

  auto seed_side = [&](size_t n, const std::vector<double>& prev_rows,
                       const std::vector<uint32_t>& old_to_new,
                       const std::vector<uint32_t>& frontier,
                       uint64_t salt) {
    std::vector<double> rows(n * cs);
    std::vector<char> warm_row(n, 0);
    for (size_t old_i = 0; old_i < old_to_new.size(); ++old_i) {
      const uint32_t new_i = old_to_new[old_i];
      if (new_i == graph::BipartiteGraph::kInvalidIndex ||
          static_cast<size_t>(new_i) >= n) {
        continue;
      }
      if ((old_i + 1) * cs > prev_rows.size()) continue;
      std::copy(prev_rows.begin() + static_cast<ptrdiff_t>(old_i * cs),
                prev_rows.begin() + static_cast<ptrdiff_t>((old_i + 1) * cs),
                rows.begin() + static_cast<ptrdiff_t>(new_i * cs));
      warm_row[new_i] = 1;
    }
    for (uint32_t v : frontier) {
      if (v < n) warm_row[v] = 0;  // changed neighborhood: re-initialize
    }
    for (size_t v = 0; v < n; ++v) {
      if (warm_row[v]) continue;
      for (size_t k = 0; k < cs; ++k) {
        rows[v * cs + k] =
            init_mean * HashJitter(config_.seed ^ salt, v * cs + k);
      }
    }
    return rows;
  };

  std::vector<double> f = seed_side(nl, prev.f, warm.old_to_new_left,
                                    warm.frontier_left, 0x66ull);
  std::vector<double> h = seed_side(nr, prev.h, warm.old_to_new_right,
                                    warm.frontier_right, 0x68ull);
  return FitFrom(g, std::move(f), std::move(h));
}

CodaResult Coda::FitFrom(const graph::BipartiteGraph& g, std::vector<double> f,
                         std::vector<double> h) const {
  CodaResult result;
  const size_t nl = g.num_left();
  const size_t nr = g.num_right();
  const int c = std::max(1, config_.num_communities);
  result.investor_communities.num_nodes = nl;
  result.company_communities.num_nodes = nr;
  if (nl == 0 || nr == 0 || g.num_edges() == 0) return result;

  const double density = static_cast<double>(g.num_edges()) /
                         (static_cast<double>(nl) * static_cast<double>(nr));
  ThreadPool pool(config_.num_threads > 0
                      ? static_cast<size_t>(config_.num_threads)
                      : ThreadPool::DefaultParallelism());

  const size_t cs = static_cast<size_t>(c);

  // Column sums of one side's factor rows, added in row order.
  auto column_sums = [cs](const std::vector<double>& rows, size_t n,
                          std::vector<double>* sums) {
    sums->assign(cs, 0.0);
    for (size_t i = 0; i < n; ++i) {
      simd::AddF64(sums->data(), &rows[i * cs], cs);
    }
  };
  std::vector<double> sum_f;
  std::vector<double> sum_h;
  column_sums(f, nl, &sum_f);
  column_sums(h, nr, &sum_h);

  // One-time max-degree reservation: every worker's scratch is sized for the
  // largest neighborhood on either side, so no row update reallocates.
  size_t max_degree = 1;
  for (uint32_t u = 0; u < nl; ++u) {
    max_degree = std::max(max_degree, g.OutNeighbors(u).size());
  }
  for (uint32_t v = 0; v < nr; ++v) {
    max_degree = std::max(max_degree, g.InNeighbors(v).size());
  }
  std::vector<RowScratch> scratches;
  scratches.reserve(pool.num_threads());
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    scratches.emplace_back(c, max_degree);
  }

  // One row update. `scratch.gather` holds the row's `count` neighbor rows
  // Y_nbr followed by rest = (column sums of the other side) - (sum over
  // neighbors), floored at zero. The row's local objective is
  //   l(x) = sum_{nbr} log(1 - exp(-x . Y_nbr)) - x . rest
  // and one DotRowsF64 call over all count + 1 rows scores it; the gradient
  // and the base objective are both built from the same dots, each folded
  // in row order.
  auto update_row = [&](double* x, size_t count, RowScratch& scratch) {
    const double* rows = scratch.gather.data();
    const double* rest = rows + count * cs;
    double* dots = scratch.dots.data();
    simd::DotRowsF64(x, rows, count + 1, cs, dots);

    // Gradient: sum_nbr Y / expm1(dot) - rest.
    double* grad = scratch.grad.data();
    std::fill(scratch.grad.begin(), scratch.grad.end(), 0.0);
    for (size_t i = 0; i < count; ++i) {
      double d = dots[i];
      if (d < kMinDot) d = kMinDot;
      double w = 1.0 / std::expm1(d);
      if (w > kMaxWeight) w = kMaxWeight;
      simd::AxpyF64(w, rows + i * cs, grad, cs);
    }
    simd::SubF64(grad, rest, cs);

    const double base = SumLogEdgeProb(dots, count) - dots[count];
    double* candidate = scratch.candidate.data();
    double step = config_.initial_step;
    for (int bt = 0; bt <= config_.max_backtracks; ++bt) {
      double gdx = simd::ClampedStepDotF64(x, grad, step, 0.0,
                                           config_.max_affiliation, candidate,
                                           cs);
      if (gdx <= 0) break;  // projected step is not an ascent direction
      simd::DotRowsF64(candidate, rows, count + 1, cs, dots);
      double obj = SumLogEdgeProb(dots, count) - dots[count];
      if (obj >= base + 1e-4 * gdx) {  // Armijo
        std::copy(candidate, candidate + cs, x);
        return;
      }
      step *= config_.step_beta;
    }
    // No improving step found: leave the row unchanged.
  };

  // Runs fn(i, scratch) for every i in [0, n): each worker claims contiguous
  // kRowChunk-row chunks from a shared counter and passes its own
  // RowScratch. fn must write only state owned by row i, so the result
  // cannot depend on which worker runs a row.
  auto parallel_rows = [&](size_t n, auto&& fn) {
    std::atomic<size_t> next{0};
    pool.RunBulk(scratches.size(), [&](size_t w) {
      for (size_t begin = next.fetch_add(kRowChunk); begin < n;
           begin = next.fetch_add(kRowChunk)) {
        const size_t end = std::min(n, begin + kRowChunk);
        for (size_t i = begin; i < end; ++i) fn(i, scratches[w]);
      }
    });
  };

  // One phase: updates every row of `self` (n rows) against the fixed other
  // side, then refreshes self's column sums.
  auto update_side = [&](size_t n, auto neighbors, std::vector<double>& self,
                         const std::vector<double>& other,
                         const std::vector<double>& other_sum,
                         std::vector<double>* self_sum) {
    parallel_rows(n, [&](size_t i, RowScratch& scratch) {
      auto nbrs = neighbors(static_cast<uint32_t>(i));
      double* gather = scratch.gather.data();
      double* nbr_sum = scratch.nbr_sum.data();
      std::fill(scratch.nbr_sum.begin(), scratch.nbr_sum.end(), 0.0);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        simd::CopyAddF64(gather + k * cs, nbr_sum, &other[nbrs[k] * cs], cs);
      }
      simd::ClampedSubF64(gather + nbrs.size() * cs, other_sum.data(),
                          nbr_sum, cs);
      update_row(&self[i * cs], nbrs.size(), scratch);
    });
    column_sums(self, n, self_sum);
  };

  // Per-edge slots in CSR order: the parallel pass fills them, and the
  // serial fold below adds them in edge order, so the sums never depend on
  // the thread count.
  std::vector<size_t> edge_begin(nl + 1, 0);
  for (uint32_t u = 0; u < nl; ++u) {
    edge_begin[u + 1] = edge_begin[u] + g.OutNeighbors(u).size();
  }
  std::vector<double> edge_log_prob(g.num_edges());
  std::vector<double> edge_dot(g.num_edges());

  auto log_likelihood = [&]() {
    parallel_rows(nl, [&](size_t u, RowScratch&) {
      const double* fu = &f[u * cs];
      size_t e = edge_begin[u];
      for (uint32_t v : g.OutNeighbors(static_cast<uint32_t>(u))) {
        double dot = std::max(simd::DotF64(fu, &h[v * cs], cs), kMinDot);
        edge_log_prob[e] = std::log1p(-std::exp(-dot));
        edge_dot[e] = dot;
        ++e;
      }
    });
    double ll = 0;
    double edge_dot_sum = 0;
    for (size_t e = 0; e < edge_dot.size(); ++e) {
      ll += edge_log_prob[e];
      edge_dot_sum += edge_dot[e];
    }
    double all_pairs = simd::DotF64(sum_f.data(), sum_h.data(), cs);
    ll -= all_pairs - edge_dot_sum;
    return ll;
  };

  double prev_ll = log_likelihood();
  result.log_likelihood_trace.push_back(prev_ll);

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    // F phase (investor rows against fixed H), then H phase (company rows
    // against the updated F).
    update_side(
        nl, [&](uint32_t u) { return g.OutNeighbors(u); }, f, h, sum_h,
        &sum_f);
    update_side(
        nr, [&](uint32_t v) { return g.InNeighbors(v); }, h, f, sum_f,
        &sum_h);

    double ll = log_likelihood();
    result.log_likelihood_trace.push_back(ll);
    result.iterations = iter + 1;
    double denom = std::fabs(prev_ll) > 1e-12 ? std::fabs(prev_ll) : 1.0;
    if (ll - prev_ll < config_.tolerance * denom) {
      prev_ll = ll;
      break;
    }
    prev_ll = ll;
  }
  result.final_log_likelihood = prev_ll;

  // --- membership assignment -------------------------------------------
  double delta = config_.membership_threshold;
  if (delta <= 0) {
    double eps = std::clamp(density, 1e-12, 1.0 - 1e-12);
    delta = std::sqrt(-std::log1p(-eps));
  }
  result.threshold_used = delta;
  result.investor_communities.communities.assign(static_cast<size_t>(c), {});
  result.company_communities.communities.assign(static_cast<size_t>(c), {});
  for (uint32_t u = 0; u < nl; ++u) {
    for (int k = 0; k < c; ++k) {
      if (f[u * static_cast<size_t>(c) + k] >= delta) {
        result.investor_communities.communities[static_cast<size_t>(k)]
            .push_back(u);
      }
    }
  }
  for (uint32_t v = 0; v < nr; ++v) {
    for (int k = 0; k < c; ++k) {
      if (h[v * static_cast<size_t>(c) + k] >= delta) {
        result.company_communities.communities[static_cast<size_t>(k)]
            .push_back(v);
      }
    }
  }
  result.investor_communities.PruneSmall(config_.min_community_size);
  result.company_communities.PruneSmall(config_.min_community_size);
  result.num_factors = c;
  result.f = std::move(f);
  result.h = std::move(h);
  return result;
}

double CodaResult::EdgeProbability(uint32_t left, uint32_t right) const {
  if (num_factors == 0) return 0;
  const size_t c = static_cast<size_t>(num_factors);
  double dot = simd::DotF64(&f[left * c], &h[right * c], c);
  return -std::expm1(-std::max(dot, kMinDot));
}

}  // namespace cfnet::community
