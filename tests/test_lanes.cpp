// The GP engine's two cloned loops (gp/lanes.hpp): the AVX2 clone of each
// gives the SSE2 clone's bits on the same inputs, and the process runs the
// AVX2 clones exactly when the CPU has AVX2.

#include "gp/lanes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace edgebol::gp {
namespace {

using lanes::Isa;

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> uniform(Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

TEST(Lanes, ProcessRunsAvx2ExactlyWhenTheCpuHasIt) {
  EXPECT_EQ(lanes::host_isa() == Isa::kAvx2, cpu_has_avx2());
  EXPECT_STREQ(lanes::isa_name(lanes::host_isa()),
               cpu_has_avx2() ? "avx2" : "sse2");
}

// Runs the substitution over columns [j0, j1) of an n x m cache at both
// widths from the same state and compares the cache and the moments.
void expect_substitution_clones_agree(std::size_t n, std::size_t m,
                                      std::size_t j0, std::size_t j1) {
  SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m) +
               " columns [" + std::to_string(j0) + ", " + std::to_string(j1) +
               ")");
  Rng rng(7 + n);
  // A well-conditioned SPD matrix: B B^T / n + I.
  linalg::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) b(i, k) = rng.normal();
  }
  linalg::Matrix spd(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      double s = 0.0;
      for (std::size_t q = 0; q < n; ++q) s += b(i, q) * b(k, q);
      spd(i, k) = s / static_cast<double>(n) + (i == k ? 1.0 : 0.0);
    }
  }
  const linalg::CholeskyFactor chol(spd);
  const std::vector<double> w = uniform(rng, n, -2.0, 2.0);
  const std::vector<double> a0 = uniform(rng, n * m, 0.0, 1.0);
  const std::vector<double> mean0 = uniform(rng, m, -1.0, 1.0);
  const std::vector<double> var0 = uniform(rng, m, 0.5, 1.0);

  std::vector<double> a[2] = {a0, a0};
  std::vector<double> mean[2] = {mean0, mean0};
  std::vector<double> var[2] = {var0, var0};
  const Isa isas[2] = {Isa::kSse2, Isa::kAvx2};
  for (std::size_t c = 0; c < 2; ++c) {
    lanes::substitute_columns(isas[c], chol, w.data(), a[c].data(), m, n, j0,
                              j1, mean[c].data(), var[c].data());
  }
  EXPECT_FALSE(same_bits(a[0], a0));  // the substitution ran
  EXPECT_TRUE(same_bits(a[0], a[1]));
  EXPECT_TRUE(same_bits(mean[0], mean[1]));
  EXPECT_TRUE(same_bits(var[0], var[1]));
}

TEST(Lanes, SubstitutionClonesGiveTheSameBits) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // n mod 3 in {0, 1, 2}: the last row tile has 3, 1 or 2 rows; the spans
  // end in 0-7 columns past the last 8-column panel, from an aligned and an
  // unaligned first column.
  for (const std::size_t n : {1, 2, 3, 4, 5, 100, 101}) {
    for (const std::size_t j0 : {0, 3}) {
      for (std::size_t tail = 0; tail < 8; ++tail) {
        expect_substitution_clones_agree(n, 40, j0, j0 + 16 + tail);
      }
    }
  }
  // The 11^4 grid's ragged last block: 14,641 = 28 * 512 + 305.
  expect_substitution_clones_agree(101, 14641, 28 * 512, 14641);
}

TEST(Lanes, DistanceClonesGiveTheSameBits) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::vector<std::size_t> counts;  // 1-17 cover every tail at both widths
  for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
  for (const std::size_t n : {255, 256, 257}) counts.push_back(n);
  Rng rng(11);
  for (const std::size_t d : {1, 2, 3, 4, 5, 6, 7, 8, 14}) {
    for (const std::size_t n : counts) {
      SCOPED_TRACE("d=" + std::to_string(d) + " n=" + std::to_string(n));
      // Feature-major points from an unaligned first point, with a stride
      // past the last one, as a candidate block inside a larger set.
      const std::size_t stride = n + 5;
      const std::vector<double> x = uniform(rng, d * stride + 1, -1.0, 2.0);
      const std::vector<double> z = uniform(rng, d, 0.0, 1.0);
      const std::vector<double> il = uniform(rng, d, 0.5, 4.0);
      std::vector<double> s[2] = {std::vector<double>(n, -1.0),
                                  std::vector<double>(n, -1.0)};
      const Isa isas[2] = {Isa::kSse2, Isa::kAvx2};
      for (std::size_t c = 0; c < 2; ++c) {
        lanes::feature_major_squared_distances(isas[c], x.data() + 1, stride,
                                               n, z.data(), il.data(), d,
                                               s[c].data());
      }
      EXPECT_TRUE(same_bits(s[0], s[1]));
      EXPECT_TRUE(std::all_of(s[0].begin(), s[0].end(),
                              [](double v) { return v > 0.0; }))
          << "a point was left unwritten";
    }
  }
}

}  // namespace
}  // namespace edgebol::gp
