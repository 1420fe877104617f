// The GP engine's five cloned loops (gp/lanes.hpp): the AVX2 and AVX-512F
// clones of each give the SSE2 clone's bits on the same inputs, and the
// process runs the widest clones the CPU has.

#include "gp/lanes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace edgebol::gp {
namespace {

using lanes::Isa;

bool cpu_has(Isa isa) {
  __builtin_cpu_init();
  switch (isa) {
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kSse2:
      break;
  }
  return true;
}

// The wider widths this host can run, each compared with SSE2.
std::vector<Isa> wide_isas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (cpu_has(isa)) out.push_back(isa);
  }
  return out;
}

#define SKIP_WITHOUT_WIDE_ISAS() \
  if (wide_isas().empty()) GTEST_SKIP() << "no AVX2 on this host"

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> uniform(Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

TEST(Lanes, ProcessRunsTheWidestCloneTheCpuHas) {
  const Isa widest = cpu_has(Isa::kAvx512) ? Isa::kAvx512
                     : cpu_has(Isa::kAvx2) ? Isa::kAvx2
                                           : Isa::kSse2;
  EXPECT_EQ(lanes::host_isa(), widest);
  EXPECT_STREQ(lanes::isa_name(lanes::host_isa()),
               lanes::isa_name(widest));
  EXPECT_STREQ(lanes::isa_name(Isa::kSse2), "sse2");
  EXPECT_STREQ(lanes::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(lanes::isa_name(Isa::kAvx512), "avx512");
}

// Runs the substitution over columns [j0, j1) of an n x m cache at every
// width from the same state and compares the cache and the moments.
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

  const auto run = [&](Isa isa, std::vector<double>& a,
                       std::vector<double>& mean, std::vector<double>& var) {
    a = a0;
    mean = mean0;
    var = var0;
    lanes::substitute_columns(isa, chol, w.data(), a.data(), m, n, j0, j1,
                              mean.data(), var.data());
  };
  std::vector<double> a, mean, var;
  run(Isa::kSse2, a, mean, var);
  EXPECT_FALSE(same_bits(a, a0));  // the substitution ran
  for (const Isa isa : wide_isas()) {
    SCOPED_TRACE(lanes::isa_name(isa));
    std::vector<double> wa, wmean, wvar;
    run(isa, wa, wmean, wvar);
    EXPECT_TRUE(same_bits(a, wa));
    EXPECT_TRUE(same_bits(mean, wmean));
    EXPECT_TRUE(same_bits(var, wvar));
  }
}

TEST(Lanes, SubstitutionClonesGiveTheSameBits) {
  SKIP_WITHOUT_WIDE_ISAS();
  // n mod 3 and n mod 4 take every value: the last row tile of the 3-row
  // (SSE2, AVX2) and 4-row (AVX-512) tiles is whole or ragged by 1-3 rows.
  // The spans end in 0-15 columns past the last 16-column panel, from an
  // aligned and an unaligned first column.
  for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 100, 101, 102, 103}) {
    for (const std::size_t j0 : {0, 3}) {
      for (std::size_t tail = 0; tail < 16; ++tail) {
        expect_substitution_clones_agree(n, 56, j0, j0 + 32 + tail);
      }
    }
  }
  // The 11^4 grid's ragged last block: 14,641 = 28 * 512 + 305.
  expect_substitution_clones_agree(101, 14641, 28 * 512, 14641);
}

TEST(Lanes, DistanceClonesGiveTheSameBits) {
  SKIP_WITHOUT_WIDE_ISAS();
  std::vector<std::size_t> counts;  // 1-33 cover every tail at every width
  for (std::size_t n = 1; n <= 33; ++n) counts.push_back(n);
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
      const auto run = [&](Isa isa) {
        std::vector<double> s(n, -1.0);
        lanes::feature_major_squared_distances(isa, x.data() + 1, stride, n,
                                               z.data(), il.data(), d,
                                               s.data());
        return s;
      };
      const std::vector<double> s = run(Isa::kSse2);
      EXPECT_TRUE(std::all_of(s.begin(), s.end(),
                              [](double v) { return v > 0.0; }))
          << "a point was left unwritten";
      for (const Isa isa : wide_isas()) {
        EXPECT_TRUE(same_bits(s, run(isa))) << lanes::isa_name(isa);
      }
    }
  }
}

// The kernel loops' inputs: squared distances from [0, 50], with a third of
// the points drawn from the values that take other paths: 0, denormals,
// negative s, +inf, NaN, and s either side of each loop's lane exp bound
// (|x| <= 708.396 for the exp argument x = -sqrt(3 s) or -s / 2).
std::vector<double> kernel_inputs(Rng& rng, std::size_t n) {
  const double bound =
      std::bit_cast<double>(std::uint64_t{0x4086232affffffff});
  const double past = std::nextafter(bound, 1e300);
  const double root = bound / std::sqrt(3.0);
  const double matern_bound = root * root;
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             0x1.8p-1050,
                             -1.0,
                             -0.5,
                             -1500.0,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             2.0 * bound,
                             2.0 * past,
                             -2.0 * bound,
                             -2.0 * past,
                             matern_bound * (1.0 - 1e-12),
                             matern_bound * (1.0 + 1e-12)};
  std::vector<double> s(n);
  for (double& v : s) {
    v = rng.uniform_index(3) == 0
            ? specials[rng.uniform_index(std::size(specials))]
            : rng.uniform(0.0, 50.0);
  }
  return s;
}

TEST(Lanes, KernelValueClonesGiveTheSameBits) {
  SKIP_WITHOUT_WIDE_ISAS();
  std::vector<std::size_t> counts;  // 1-33 cover every tail at every width
  for (std::size_t n = 1; n <= 33; ++n) counts.push_back(n);
  for (const std::size_t n : {255, 256, 257}) counts.push_back(n);
  using Loop = void (*)(Isa, double, const double*, std::size_t, double*);
  const std::pair<const char*, Loop> loops[] = {
      {"matern32", lanes::matern32_values}, {"rbf", lanes::rbf_values}};
  Rng rng(13);
  for (const std::size_t n : counts) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<double> s = kernel_inputs(rng, n);
      for (const auto& [name, loop] : loops) {
        SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
        const auto run = [&](Isa isa) {
          std::vector<double> out(n, -1.0);
          loop(isa, 0.9, s.data(), n, out.data());
          return out;
        };
        const std::vector<double> out = run(Isa::kSse2);
        for (const Isa isa : wide_isas()) {
          EXPECT_TRUE(same_bits(out, run(isa))) << lanes::isa_name(isa);
        }
      }
    }
  }
}

// A lane whose exp argument is out of the lane exp's range takes libm's
// exp: exp(-inf) = 0, where the lane arithmetic would give NaN.
TEST(Lanes, OutOfRangeLanesTakeLibmExp) {
  for (const Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kAvx512}) {
    if (!cpu_has(isa)) continue;
    SCOPED_TRACE(lanes::isa_name(isa));
    for (std::size_t at = 0; at < 17; ++at) {
      std::vector<double> s(17, 1.0), out(17);
      s[at] = std::numeric_limits<double>::infinity();
      lanes::rbf_values(isa, 0.9, s.data(), s.size(), out.data());
      EXPECT_EQ(out[at], 0.0) << "at " << at;
      EXPECT_DOUBLE_EQ(out[(at + 1) % 17], 0.9 * std::exp(-0.5))
          << "at " << at;
    }
  }
}

// One fold/evict pass over an n-row cache of m columns from random state:
// a fold, an eviction of `victim` (n: the new row), or both, run over the
// columns [j0, j1) in blocks of at most 512 (the engine's scratch size),
// at every width; compares the cache and the four moment arrays.
struct PassCase {
  std::size_t n = 0;
  std::size_t m = 0;
  bool fold = false;
  bool evict = false;
  std::size_t victim = 0;
  std::size_t j0 = 0;
  std::size_t j1 = 0;
};

void expect_pass_clones_agree(const PassCase& c) {
  SCOPED_TRACE("n=" + std::to_string(c.n) + " m=" + std::to_string(c.m) +
               (c.fold ? " fold" : "") +
               (c.evict ? " evict " + std::to_string(c.victim) : "") +
               " columns [" + std::to_string(c.j0) + ", " +
               std::to_string(c.j1) + ")");
  Rng rng(31 + c.n + c.m + c.victim);
  // Room for the new row that a fold alone stores.
  const std::vector<double> a0 = uniform(rng, (c.n + 1) * c.m, -1.0, 1.0);
  const std::vector<double> lrow = uniform(rng, c.n + 1, -0.8, 0.8);
  std::vector<linalg::GivensRotation> rotations(c.n + 1);
  for (linalg::GivensRotation& r : rotations) {
    const double theta = rng.uniform(-3.0, 3.0);
    r.c = std::cos(theta);
    r.s = std::sin(theta);
  }
  const std::vector<double> k0 = uniform(rng, c.m, 0.0, 1.0);
  std::vector<double> moments0[2] = {uniform(rng, c.m, -1.0, 1.0),
                                     uniform(rng, c.m, 0.2, 1.0)};
  const double pivot = rng.uniform(0.5, 1.5);
  const double w_new = rng.normal();
  const double w_last = rng.normal();

  struct Out {
    std::vector<double> a;
    std::vector<double> moments[2];
  };
  const auto run = [&](Isa isa) {
    Out o{a0, {moments0[0], moments0[1]}};
    const lanes::PassState p{.a = o.a.data(),
                             .m = c.m,
                             .rows = c.n,
                             .fold = c.fold,
                             .lrow = lrow.data(),
                             .pivot = pivot,
                             .w_new = w_new,
                             .evict = c.evict,
                             .victim = c.victim,
                             .rotations = rotations.data(),
                             .w_last = w_last,
                             .mean = o.moments[0].data(),
                             .var = o.moments[1].data()};
    std::vector<double> acc(512), carry(512);
    for (std::size_t b0 = c.j0; b0 < c.j1; b0 += 512) {
      const std::size_t b1 = std::min(c.j1, b0 + 512);
      std::copy(k0.begin() + b0, k0.begin() + b1, acc.begin());
      lanes::stream_columns(isa, p, b0, b1, acc.data(), carry.data());
    }
    return o;
  };
  const Out ref = run(Isa::kSse2);
  EXPECT_FALSE(same_bits(ref.moments[0], moments0[0]));  // the pass ran
  for (const Isa isa : wide_isas()) {
    SCOPED_TRACE(lanes::isa_name(isa));
    const Out o = run(isa);
    EXPECT_TRUE(same_bits(ref.a, o.a)) << "cache";
    EXPECT_TRUE(same_bits(ref.moments[0], o.moments[0])) << "mean";
    EXPECT_TRUE(same_bits(ref.moments[1], o.moments[1])) << "variance";
  }
}

TEST(Lanes, CachePassClonesGiveTheSameBits) {
  SKIP_WITHOUT_WIDE_ISAS();
  for (const std::size_t n : {1, 2, 9}) {
    // Over spans that end in 0-15 columns past the last 16-column step,
    // from an aligned and an unaligned first column: a fold alone, an
    // eviction alone of the first, a middle and the last row, and a fold
    // plus an eviction of each of those or of the new row itself.
    std::vector<PassCase> shapes = {{.fold = true}};
    for (const std::size_t victim : {std::size_t{0}, n / 2, n - 1}) {
      shapes.push_back({.evict = true, .victim = victim});
      shapes.push_back({.fold = true, .evict = true, .victim = victim});
    }
    shapes.push_back({.fold = true, .evict = true, .victim = n});
    for (PassCase c : shapes) {
      c.n = n;
      c.m = 56;
      for (const std::size_t j0 : {0, 3}) {
        for (std::size_t tail = 0; tail < 16; ++tail) {
          c.j0 = j0;
          c.j1 = j0 + 32 + tail;
          expect_pass_clones_agree(c);
        }
      }
    }
  }
  // Whole caches of the 5^4 and 11^4 grids at the paper's budgets, in the
  // engine's 512-column blocks (ragged last ones of 113 and 305 columns).
  for (const auto& [n, m] :
       {std::pair<std::size_t, std::size_t>{64, 625}, {100, 14641}}) {
    expect_pass_clones_agree({.n = n, .m = m, .fold = true, .j1 = m});
    expect_pass_clones_agree(
        {.n = n, .m = m, .evict = true, .victim = n / 3, .j1 = m});
    expect_pass_clones_agree(
        {.n = n, .m = m, .fold = true, .evict = true, .victim = 0, .j1 = m});
  }
}

}  // namespace
}  // namespace edgebol::gp
