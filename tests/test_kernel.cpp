#include "gp/kernel.hpp"

#include <gnu/libc-version.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gp/lanes.hpp"
#include "linalg/cholesky.hpp"

// glibc's two-lane exp from libmvec (tests/CMakeLists.txt links it here).
extern "C" edgebol::gp::lanes::f64x2 _ZGVbN2v_exp(edgebol::gp::lanes::f64x2);

namespace edgebol::gp {
namespace {

TEST(Kernel, AnisotropicDistanceMatchesEq5) {
  // d = sqrt(((1-0)/2)^2 + ((2-0)/4)^2) = sqrt(0.25 + 0.25).
  EXPECT_NEAR(anisotropic_distance({1.0, 2.0}, {0.0, 0.0}, {2.0, 4.0}),
              std::sqrt(0.5), 1e-12);
}

TEST(Kernel, DistanceSizeMismatchThrows) {
  EXPECT_THROW(anisotropic_distance({1.0}, {0.0, 0.0}, {1.0, 1.0}),
               std::invalid_argument);
}

TEST(Matern32, SelfCovarianceIsAmplitude) {
  const Matern32Kernel k({1.0, 1.0}, 0.7);
  EXPECT_DOUBLE_EQ(k({0.3, -0.2}, {0.3, -0.2}), 0.7);
  EXPECT_DOUBLE_EQ(k.prior_variance(), 0.7);
}

TEST(Matern32, MatchesEq6ClosedForm) {
  const Matern32Kernel k({1.0}, 1.0);
  const double d = 0.8;
  const double expected =
      (1.0 + std::sqrt(3.0) * d) * std::exp(-std::sqrt(3.0) * d);
  EXPECT_NEAR(k({0.0}, {d}), expected, 1e-12);
}

TEST(Matern32, SymmetricAndDecaying) {
  const Matern32Kernel k({0.5, 2.0}, 1.0);
  const linalg::Vector a{0.1, 0.2}, b{0.7, -0.3};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  EXPECT_GT(k(a, a), k(a, b));
  EXPECT_GT(k(a, b), 0.0);
}

TEST(Matern32, StationarityUnderTranslation) {
  const Matern32Kernel k({0.7, 1.3}, 1.0);
  const double shift = 2.5;
  EXPECT_NEAR(k({0.1, 0.4}, {0.6, -0.2}),
              k({0.1 + shift, 0.4 + shift}, {0.6 + shift, -0.2 + shift}),
              1e-12);
}

TEST(Matern32, AnisotropyNotRotationInvariant) {
  const Matern32Kernel k({0.2, 2.0}, 1.0);
  // Same Euclidean distance, different directions.
  const double along_fast = k({0.0, 0.0}, {0.5, 0.0});  // short length-scale
  const double along_slow = k({0.0, 0.0}, {0.0, 0.5});  // long length-scale
  EXPECT_LT(along_fast, along_slow);
}

TEST(Matern32, GramMatrixIsPositiveDefinite) {
  Rng rng(3);
  const Matern32Kernel k({0.5, 0.8, 1.2}, 1.0);
  std::vector<linalg::Vector> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  linalg::Matrix gram(pts.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      gram(i, j) = k(pts[i], pts[j]);
    }
  }
  // Tiny jitter mirrors the noise term of eq. (3)-(4).
  for (std::size_t i = 0; i < pts.size(); ++i) gram(i, i) += 1e-10;
  EXPECT_NO_THROW(linalg::CholeskyFactor{gram});
}

TEST(Rbf, ClosedFormAndBounds) {
  const RbfKernel k({1.0}, 2.0);
  EXPECT_DOUBLE_EQ(k({0.0}, {0.0}), 2.0);
  EXPECT_NEAR(k({0.0}, {1.0}), 2.0 * std::exp(-0.5), 1e-12);
  EXPECT_GT(k({0.0}, {5.0}), 0.0);
}

TEST(Rbf, DecaysFasterThanMaternFarAway) {
  const RbfKernel rbf({1.0}, 1.0);
  const Matern32Kernel mat({1.0}, 1.0);
  EXPECT_LT(rbf({0.0}, {3.0}), mat({0.0}, {3.0}));
}

TEST(Kernel, InvalidParametersThrow) {
  EXPECT_THROW(Matern32Kernel({}, 1.0), std::invalid_argument);
  EXPECT_THROW(Matern32Kernel({0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(Matern32Kernel({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(RbfKernel({-1.0}, 1.0), std::invalid_argument);
}

// s = sum_k ((x_k - z_k) / l_k)^2 in the order gp/kernel.cpp documents:
// the even-k and the odd-k terms each summed in ascending k, the two
// partial sums added, then the last term when d is odd.
double documented_squared_distance(const double* x, const linalg::Vector& z,
                                   const linalg::Vector& ls) {
  const std::size_t d = z.size();
  double even = 0.0;
  double odd = 0.0;
  std::size_t k = 0;
  for (; k + 2 <= d; k += 2) {
    const double te = (x[k] - z[k]) * (1.0 / ls[k]);
    const double to = (x[k + 1] - z[k + 1]) * (1.0 / ls[k + 1]);
    even += te * te;
    odd += to * to;
  }
  double s = even + odd;
  if (k < d) {
    const double t = (x[k] - z[k]) * (1.0 / ls[k]);
    s += t * t;
  }
  return s;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The batched evaluations, row-major and feature-major, give bit for bit
// the kernel of the documented distance order, fed to the elementwise loop
// in the same Kernel::kChunk-point chunks: the summation order is part of
// every tracked posterior's bits (and, through them, of every trajectory).
TEST(Kernel, BatchedEvaluationSumsInTheDocumentedOrder) {
  Rng rng(29);
  const std::size_t lead = 3;  // the feature-major block starts mid-set
  for (const bool rbf : {false, true}) {
    for (const std::size_t d : {1, 2, 3, 4, 5, 6, 7, 8, 14}) {
      for (const std::size_t n : {1, 2, 3, 255, 256, 257, 513}) {
        const std::string where = std::string(rbf ? "rbf" : "matern") +
                                  " d=" + std::to_string(d) +
                                  " n=" + std::to_string(n);
        linalg::Vector ls(d), z(d);
        for (double& l : ls) l = 0.3 + 1.7 * rng.uniform();
        for (double& v : z) v = rng.uniform();
        const double amp = 0.5 + rng.uniform();
        std::unique_ptr<Kernel> k;
        if (rbf) {
          k = std::make_unique<RbfKernel>(ls, amp);
        } else {
          k = std::make_unique<Matern32Kernel>(ls, amp);
        }

        std::vector<double> rows(n * d);
        for (double& v : rows) v = 2.0 * rng.uniform() - 0.5;
        linalg::FeatureMajorPoints cols(d, lead + n);
        for (std::size_t j = 0; j < n; ++j) {
          for (std::size_t f = 0; f < d; ++f) {
            cols.at(lead + j, f) = rows[j * d + f];
          }
        }

        std::vector<double> s(n), expected(n);
        for (std::size_t i = 0; i < n; ++i) {
          s[i] = documented_squared_distance(&rows[i * d], z, ls);
        }
        for (std::size_t base = 0; base < n; base += Kernel::kChunk) {
          k->from_squared_distances(s.data() + base,
                                    std::min(Kernel::kChunk, n - base),
                                    expected.data() + base);
        }

        std::vector<double> by_rows(n), by_cols(n);
        k->eval_batch(rows.data(), n, z, by_rows.data());
        k->eval_columns(cols, lead, lead + n, z, by_cols.data());
        EXPECT_TRUE(same_bits(by_rows, expected)) << "row-major, " << where;
        EXPECT_TRUE(same_bits(by_cols, expected))
            << "feature-major, " << where;

        // The scalar operator() is the same distance and a one-point run.
        std::vector<double> one(1), point_value(1);
        k->from_squared_distances(s.data(), 1, one.data());
        point_value[0] = (*k)(linalg::Vector(rows.begin(), rows.begin() + d),
                              z);
        EXPECT_TRUE(same_bits(point_value, one)) << "operator(), " << where;
      }
    }
  }
}

// The kernel loops' lane exp gives the installed libmvec exp's bits at
// every width the CPU has. It is driven through the RBF loop at amplitude 1
// with s = -2x: both scalings are exact, so each point's value is the exp
// of x. A third of the inputs each come from [-40, 0] (the kernels' range),
// from [-750, 750] (past the lane range on both sides) and from raw bit
// patterns (denormals, inf, NaN).
TEST(Kernel, LaneExpMatchesLibmvec) {
  if (std::strcmp(gnu_get_libc_version(), "2.36") != 0) {
    GTEST_SKIP() << "the lane exp is glibc 2.36's libmvec arithmetic; this "
                    "is glibc "
                 << gnu_get_libc_version();
  }
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("sse4.1")) {
    GTEST_SKIP() << "without SSE4.1 libmvec runs libm's exp per lane";
  }
  std::vector<lanes::Isa> isas = {lanes::Isa::kSse2};
  if (__builtin_cpu_supports("avx2")) isas.push_back(lanes::Isa::kAvx2);
  if (__builtin_cpu_supports("avx512f")) isas.push_back(lanes::Isa::kAvx512);

  constexpr std::size_t kBatch = 4096;
  constexpr std::size_t kBatches = 2442;  // 10,002,432 inputs
  Rng rng(41);
  std::vector<double> x(kBatch), s(kBatch), want(kBatch), got(kBatch);
  std::array<bool, 1024> index_hit{};
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      switch (i % 3) {
        case 0:
          x[i] = rng.uniform(-40.0, 0.0);
          break;
        case 1:
          x[i] = rng.uniform(-750.0, 750.0);
          break;
        default: {
          const std::uint64_t high = rng();
          x[i] = std::bit_cast<double>(high << 32 | rng());
        }
      }
      s[i] = -2.0 * x[i];
      // libmvec's table index of an in-range x.
      if (std::abs(x[i]) < 708.0) {
        const double sh = x[i] * 0x1.71547652b82fep+10 + 0x1.8p+52;
        index_hit[std::bit_cast<std::uint64_t>(sh) & 1023] = true;
      }
    }
    for (std::size_t i = 0; i < kBatch; i += 2) {
      const lanes::f64x2 e = _ZGVbN2v_exp(lanes::f64x2{x[i], x[i + 1]});
      want[i] = e[0];
      want[i + 1] = e[1];
    }
    for (const lanes::Isa isa : isas) {
      lanes::rbf_values(isa, 1.0, s.data(), kBatch, got.data());
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (std::bit_cast<std::uint64_t>(got[i]) !=
            std::bit_cast<std::uint64_t>(want[i])) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << lanes::isa_name(isa) << ": exp(" << x[i]
                          << ") = " << got[i] << ", libmvec " << want[i];
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(std::all_of(index_hit.begin(), index_hit.end(),
                          [](bool hit) { return hit; }))
      << "a table entry was never used";
}

TEST(Kernel, CloneIsIndependentCopy) {
  const Matern32Kernel k({0.5}, 1.5);
  const auto c = k.clone();
  EXPECT_DOUBLE_EQ((*c)({0.2}, {0.4}), k({0.2}, {0.4}));
  EXPECT_EQ(c->dims(), 1u);
}

}  // namespace
}  // namespace edgebol::gp
