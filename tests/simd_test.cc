// Differential tests for the SIMD numeric-kernel layer: every dispatched
// kernel must be BYTE-identical to its scalar canonical form on every
// input — all lengths 0..257 (covering the 16-wide main loop, its tail,
// and sub-width sizes), misaligned base pointers, and NaN/inf payloads.
// Comparisons go through bit_cast so -0.0 vs 0.0 and NaN payload drift
// fail loudly where EXPECT_DOUBLE_EQ would shrug.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/simd.h"

namespace cfnet {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameBits(double a, double b, const char* what, size_t n,
                    size_t offset) {
  EXPECT_EQ(Bits(a), Bits(b)) << what << " diverges at n=" << n
                              << " offset=" << offset << " (" << a
                              << " vs " << b << ")";
}

void ExpectSameVector(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what, size_t n,
                      size_t offset) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << "[" << i << "] diverges at n=" << n << " offset=" << offset;
  }
}

constexpr size_t kMaxLen = 257;
constexpr size_t kMaxOffset = 3;

/// Deterministic input pool with NaN and +/-inf planted at fixed spots, so
/// every (length, offset) window eventually slides over a special value.
struct Pool {
  std::vector<double> a, b;

  explicit Pool(uint64_t seed) {
    Rng rng(seed);
    const size_t len = kMaxLen + kMaxOffset + 1;
    a.resize(len);
    b.resize(len);
    for (size_t i = 0; i < len; ++i) {
      a[i] = rng.Uniform(-3.0, 3.0);
      b[i] = rng.Uniform(-3.0, 3.0);
    }
    a[5] = std::numeric_limits<double>::quiet_NaN();
    a[77] = std::numeric_limits<double>::infinity();
    a[131] = -std::numeric_limits<double>::infinity();
    b[13] = std::numeric_limits<double>::infinity();
    b[200] = std::numeric_limits<double>::quiet_NaN();
  }
};

TEST(SimdTest, ReductionsMatchScalarOnFullGrid) {
  Pool pool(101);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const double* a = pool.a.data() + offset;
      const double* b = pool.b.data() + offset;
      ExpectSameBits(simd::DotF64(a, b, n), simd::DotF64Scalar(a, b, n),
                     "DotF64", n, offset);
      ExpectSameBits(simd::SumF64(a, n), simd::SumF64Scalar(a, n), "SumF64", n,
                     offset);
      ExpectSameBits(simd::SumSqDiffF64(a, n, 0.37),
                     simd::SumSqDiffF64Scalar(a, n, 0.37), "SumSqDiffF64", n,
                     offset);
      double sxy_v, sxx_v, syy_v, sxy_s, sxx_s, syy_s;
      simd::PearsonAccumF64(a, b, n, 0.11, -0.7, &sxy_v, &sxx_v, &syy_v);
      simd::PearsonAccumF64Scalar(a, b, n, 0.11, -0.7, &sxy_s, &sxx_s, &syy_s);
      ExpectSameBits(sxy_v, sxy_s, "PearsonAccumF64 sxy", n, offset);
      ExpectSameBits(sxx_v, sxx_s, "PearsonAccumF64 sxx", n, offset);
      ExpectSameBits(syy_v, syy_s, "PearsonAccumF64 syy", n, offset);
    }
  }
}

TEST(SimdTest, ClampedStepDotMatchesScalarOnFullGrid) {
  Pool pool(102);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const double* x = pool.a.data() + offset;
      const double* g = pool.b.data() + offset;
      std::vector<double> cand_v(n, -1), cand_s(n, -1);
      const double gdx_v =
          simd::ClampedStepDotF64(x, g, 0.25, 0.0, 2.0, cand_v.data(), n);
      const double gdx_s = simd::ClampedStepDotF64Scalar(x, g, 0.25, 0.0, 2.0,
                                                         cand_s.data(), n);
      ExpectSameBits(gdx_v, gdx_s, "ClampedStepDotF64 gdx", n, offset);
      ExpectSameVector(cand_v, cand_s, "ClampedStepDotF64 cand", n, offset);
    }
  }
}

TEST(SimdTest, ElementwiseKernelsMatchScalarOnFullGrid) {
  Pool pool(103);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const double* x = pool.a.data() + offset;
      const double* b = pool.b.data() + offset;
      std::vector<double> y_v(x, x + n), y_s(x, x + n);

      simd::AxpyF64(1.75, b, y_v.data(), n);
      simd::AxpyF64Scalar(1.75, b, y_s.data(), n);
      ExpectSameVector(y_v, y_s, "AxpyF64", n, offset);

      simd::AddF64(y_v.data(), b, n);
      simd::AddF64Scalar(y_s.data(), b, n);
      ExpectSameVector(y_v, y_s, "AddF64", n, offset);

      simd::SubF64(y_v.data(), b, n);
      simd::SubF64Scalar(y_s.data(), b, n);
      ExpectSameVector(y_v, y_s, "SubF64", n, offset);

      std::vector<double> dst_v(n, -1), dst_s(n, -1);
      simd::CopyAddF64(dst_v.data(), y_v.data(), b, n);
      simd::CopyAddF64Scalar(dst_s.data(), y_s.data(), b, n);
      ExpectSameVector(dst_v, dst_s, "CopyAddF64 dst", n, offset);
      ExpectSameVector(y_v, y_s, "CopyAddF64 acc", n, offset);

      simd::ClampedSubF64(dst_v.data(), x, b, n);
      simd::ClampedSubF64Scalar(dst_s.data(), x, b, n);
      ExpectSameVector(dst_v, dst_s, "ClampedSubF64", n, offset);
    }
  }
}

TEST(SimdTest, AndPopcountMatchesScalarAndNaiveBitLoop) {
  Rng rng(104);
  const size_t max_words = 130;
  std::vector<uint64_t> a(max_words + kMaxOffset), b(max_words + kMaxOffset);
  for (auto& w : a) w = rng.Next();
  for (auto& w : b) w = rng.Next();
  a[3] = 0;
  b[7] = ~uint64_t{0};
  for (size_t n = 0; n <= max_words; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const uint64_t* pa = a.data() + offset;
      const uint64_t* pb = b.data() + offset;
      uint64_t naive = 0;
      for (size_t i = 0; i < n; ++i) {
        for (uint64_t w = pa[i] & pb[i]; w != 0; w >>= 1) naive += w & 1;
      }
      EXPECT_EQ(simd::AndPopcountU64(pa, pb, n), naive)
          << "n=" << n << " offset=" << offset;
      EXPECT_EQ(simd::AndPopcountU64Scalar(pa, pb, n), naive);
    }
  }
}

// The scalar canonical form must itself honor the documented virtual-lane
// layout — an independent re-derivation, so a refactor cannot silently
// change the semantics both sides of the differential tests share.
TEST(SimdTest, ScalarFormFollowsVirtualLaneContract) {
  Rng rng(105);
  std::vector<double> a(45);
  for (auto& v : a) v = rng.Uniform(-1.0, 1.0);
  double lane[simd::kVirtualLanes] = {};
  for (size_t i = 0; i < a.size(); ++i) {
    lane[i % simd::kVirtualLanes] += a[i];
  }
  double quad[4];
  for (size_t q = 0; q < 4; ++q) {
    quad[q] = (lane[4 * q] + lane[4 * q + 1]) + (lane[4 * q + 2] + lane[4 * q + 3]);
  }
  const double expected = (quad[0] + quad[1]) + (quad[2] + quad[3]);
  EXPECT_EQ(Bits(simd::SumF64Scalar(a.data(), a.size())), Bits(expected));
}

// DotRowsF64 promises out[r] == DotF64(x, rows + r * c, c) bit for bit, on
// every backend: each row keeps its own virtual lanes however many rows the
// vector forms interleave. The row pool plants NaN and +/-inf so some rows
// (and, through the x pool, some columns) carry special values.
TEST(SimdTest, DotRowsMatchesPerRowDotOnFullGrid) {
  constexpr size_t kMaxRows = 9;
  Pool x_pool(108);
  Rng rng(109);
  std::vector<double> row_pool(kMaxRows * kMaxLen + kMaxOffset + 1);
  for (double& v : row_pool) v = rng.Uniform(-3.0, 3.0);
  row_pool[13] = std::numeric_limits<double>::infinity();
  row_pool[200] = std::numeric_limits<double>::quiet_NaN();
  row_pool[650] = -std::numeric_limits<double>::infinity();
  row_pool[1301] = std::numeric_limits<double>::quiet_NaN();
  row_pool[2000] = std::numeric_limits<double>::infinity();

  for (bool force_scalar : {false, true}) {
    std::optional<simd::ScopedForceScalar> scalar;
    if (force_scalar) scalar.emplace();
    for (size_t c = 0; c <= kMaxLen; ++c) {
      for (size_t count = 0; count <= kMaxRows; ++count) {
        for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
          const double* x = x_pool.a.data() + offset;
          const double* rows = row_pool.data() + offset;
          // One sentinel past the end: the kernel writes exactly `count`.
          std::vector<double> out(count + 1, -7.0);
          simd::DotRowsF64(x, rows, count, c, out.data());
          for (size_t r = 0; r < count; ++r) {
            const double* row = rows + r * c;
            const double scalar_dot = simd::DotF64Scalar(x, row, c);
            ASSERT_EQ(Bits(out[r]), Bits(simd::DotF64(x, row, c)))
                << "DotRowsF64 row " << r << " vs DotF64 at c=" << c
                << " count=" << count << " offset=" << offset
                << " scalar=" << force_scalar;
            ASSERT_EQ(Bits(out[r]), Bits(scalar_dot))
                << "DotRowsF64 row " << r << " vs DotF64Scalar at c=" << c
                << " count=" << count << " offset=" << offset
                << " scalar=" << force_scalar;
          }
          ASSERT_EQ(out[count], -7.0) << "wrote past count=" << count;
          std::vector<double> canonical(count + 1, -7.0);
          simd::DotRowsF64Scalar(x, rows, count, c, canonical.data());
          ExpectSameVector(out, canonical, "DotRowsF64Scalar", c, offset);
        }
      }
    }
  }
}

// The kernels one CoDA row update chains together (gather, rest
// projection, batched dots, gradient axpys, clamped step), composed the way
// Coda::FitFrom composes them, must stay bit-identical SIMD-on vs SIMD-off.
TEST(SimdTest, CodaRowHelpersBitIdenticalSimdOnOff) {
  Rng rng(106);
  const size_t c = 33;
  const size_t count = 9;
  std::vector<double> x(c), other(count * c), col_sum(c);
  for (auto& v : x) v = rng.Uniform(0.0, 0.5);
  for (auto& v : other) v = rng.Uniform(0.0, 0.5);
  for (auto& v : col_sum) v = rng.Uniform(2.0, 4.0);

  struct RowStep {
    std::vector<double> gather, dots, grad, candidate;
    double gdx = 0;
  };
  auto run = [&]() {
    RowStep out;
    out.gather.assign(count * c, 0.0);
    out.dots.assign(count, 0.0);
    out.grad.assign(c, 0.0);
    out.candidate.assign(c, 0.0);
    std::vector<double> nbr_sum(c, 0.0), rest(c);
    for (size_t i = 0; i < count; ++i) {
      simd::CopyAddF64(out.gather.data() + i * c, nbr_sum.data(),
                       other.data() + i * c, c);
    }
    simd::ClampedSubF64(rest.data(), col_sum.data(), nbr_sum.data(), c);
    simd::DotRowsF64(x.data(), out.gather.data(), count, c, out.dots.data());
    for (size_t i = 0; i < count; ++i) {
      const double w = 1.0 / std::expm1(std::max(out.dots[i], 1e-10));
      simd::AxpyF64(w, out.gather.data() + i * c, out.grad.data(), c);
    }
    simd::SubF64(out.grad.data(), rest.data(), c);
    out.gdx = simd::ClampedStepDotF64(x.data(), out.grad.data(), 0.25, 0.0,
                                      1000.0, out.candidate.data(), c);
    return out;
  };

  const RowStep on = run();
  RowStep off;
  {
    simd::ScopedForceScalar force;
    off = run();
  }
  ExpectSameVector(on.gather, off.gather, "gather", c, 0);
  ExpectSameVector(on.dots, off.dots, "dots", c, 0);
  ExpectSameVector(on.grad, off.grad, "grad", c, 0);
  ExpectSameVector(on.candidate, off.candidate, "candidate", c, 0);
  EXPECT_EQ(Bits(on.gdx), Bits(off.gdx));
}

TEST(SimdTest, ScopedForceScalarSwapsAndRestoresBackend) {
  const std::string before = simd::SimdBackendName();
  const bool was_enabled = simd::SimdEnabled();
  {
    simd::ScopedForceScalar outer;
    EXPECT_STREQ(simd::SimdBackendName(), "scalar");
    EXPECT_FALSE(simd::SimdEnabled());
    {
      simd::ScopedForceScalar inner;  // nestable
      EXPECT_STREQ(simd::SimdBackendName(), "scalar");
    }
    EXPECT_STREQ(simd::SimdBackendName(), "scalar");
  }
  EXPECT_EQ(simd::SimdBackendName(), before);
  EXPECT_EQ(simd::SimdEnabled(), was_enabled);
}

TEST(SimdTest, MeanVarHandlesEmptyAndMatchesComposition) {
  double mean = 42, ssd = 42;
  simd::MeanVarF64(nullptr, 0, &mean, &ssd);
  EXPECT_EQ(mean, 0.0);
  EXPECT_EQ(ssd, 0.0);

  Rng rng(107);
  std::vector<double> a(97);
  for (auto& v : a) v = rng.Uniform(-5.0, 5.0);
  simd::MeanVarF64(a.data(), a.size(), &mean, &ssd);
  const double m = simd::SumF64(a.data(), a.size()) /
                   static_cast<double>(a.size());
  EXPECT_EQ(Bits(mean), Bits(m));
  EXPECT_EQ(Bits(ssd), Bits(simd::SumSqDiffF64(a.data(), a.size(), m)));
}

}  // namespace
}  // namespace cfnet
