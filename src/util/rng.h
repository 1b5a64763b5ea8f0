#ifndef CFNET_UTIL_RNG_H_
#define CFNET_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cfnet {

/// SplitMix64 finalizer: a fast, statistically strong 64-bit bit mixer.
/// Use for stateless per-index hashes (e.g. CoDA's per-cell warm-start
/// jitter, or retry backoff jitter keyed on the attempt). Mix64(0) == 0, so
/// salt the input when zero inputs are possible.
uint64_t Mix64(uint64_t x);

/// Deterministic pseudo-random source (xoshiro256** seeded via SplitMix64)
/// plus the sampling distributions used across the synthetic-world generator
/// and the analyses. Every stochastic component in cfnet draws from an Rng
/// with an explicit seed, so all experiments are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Uniform 64-bit word.
  uint64_t Next();

  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextUint64(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Exponential with rate lambda (> 0).
  double Exponential(double lambda);

  /// Geometric number of failures before first success, success prob p in (0,1].
  int64_t Geometric(double p);

  /// Poisson-distributed count with the given mean (>= 0).
  /// Uses Knuth's method for small means and normal approximation above 64.
  int64_t Poisson(double mean);

  /// Zipf-distributed rank in [1, n] with exponent s >= 0.
  /// Uses rejection-inversion (Hormann & Derflinger) so it is O(1) per draw.
  int64_t Zipf(int64_t n, double s);

  /// Discrete power-law sample in [xmin, xmax] with exponent alpha > 1,
  /// P(x) proportional to x^-alpha, via continuous inversion + rounding.
  int64_t PowerLaw(int64_t xmin, int64_t xmax, double alpha);

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Zero/negative weights are treated as zero. Requires some positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextUint64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator (for per-thread / per-entity
  /// streams that must not correlate with the parent).
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace cfnet

#endif  // CFNET_UTIL_RNG_H_
