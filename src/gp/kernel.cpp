// Kernel evaluation: the squared scaled distances, then the elementwise
// s -> k(s) loops with their exp, each written once over the lane type and
// cloned at every vector width (gp/lanes.hpp). This unit is strict IEEE (no
// fast-math, -ffp-contract=off), so the summation order and the exp's
// operations below are the program's, not the compiler's, at any -O level.
// It is built with -fno-math-errno (src/CMakeLists.txt), which drops only
// sqrt's errno side effect, so that a lane sqrt compiles to one sqrtpd.

#include "gp/kernel.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "gp/lanes.hpp"

namespace edgebol::gp {

namespace {

using lanes::f64x2;
using lanes::f64x4;
using lanes::f64x8;

// Points packed row-major: point i's features are x[i * d .. (i + 1) * d).
// Only the baseline f64x2 path reads them.
struct RowMajor {
  const double* x;
  std::size_t d;
  RowMajor from(std::size_t i) const { return {x + i * d, d}; }
  double at(std::size_t i, std::size_t k) const { return x[i * d + k]; }
  template <class V>
  [[gnu::always_inline]] V pack(std::size_t i, std::size_t k) const {
    static_assert(std::is_same_v<V, f64x2>);
    return f64x2{at(i, k), at(i + 1, k)};
  }
};

// Points stored feature-major: feature k of point i at x[k * stride + i].
struct FeatureMajor {
  const double* x;
  std::size_t stride;
  FeatureMajor from(std::size_t i) const { return {x + i, stride}; }
  double at(std::size_t i, std::size_t k) const { return x[k * stride + i]; }
  template <class V>
  [[gnu::always_inline]] V pack(std::size_t i, std::size_t k) const {
    return lanes::load<V>(x + k * stride + i);
  }
};

// Lane vectors per step of the distance loop.
constexpr std::size_t kStepVectors = 2;

// s[i] = sum over k < d of t_k^2, t_k = (x_i[k] - z[k]) * il[k], for the n
// points of `x`, summed in one fixed order: the even-k terms accumulate in
// ascending k, so do the odd-k terms, the two partial sums are added, and a
// last term joins when d is odd. For d = 7:
//   s = (((t0^2 + t2^2) + t4^2) + ((t1^2 + t3^2) + t5^2)) + t6^2.
// That is the order GCC 12's -O3 fast-math vectorizer gave the plain
// ascending row-major loop this replaced (a two-lane reduction, even k in
// one lane and odd k in the other, then a scalar epilogue), kept so every
// kernel value, and so every trajectory, stayed bit for bit the same. Two
// lane vectors of points run at a time (4 points as f64x2, 8 as f64x4, 16
// as f64x8), each feature's z and 1/l broadcast once for all of them; a
// ragged tail runs the same order one point at a time, so the lane type and
// the point count change no value.
template <class V, class Points>
void squared_distances(const Points& x, std::size_t n, const double* z,
                       const double* il, std::size_t d, double* s) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kStep = kStepVectors * kLanes;
  const std::size_t pairs_end = d - d % 2;
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    V even[kStepVectors] = {};
    V odd[kStepVectors] = {};
    for (std::size_t k = 0; k < pairs_end; k += 2) {
#pragma GCC unroll kStepVectors
      for (std::size_t h = 0; h < kStepVectors; ++h) {
        const std::size_t p = i + h * kLanes;
        const V te = (x.template pack<V>(p, k) - z[k]) * il[k];
        const V to = (x.template pack<V>(p, k + 1) - z[k + 1]) * il[k + 1];
        even[h] += te * te;
        odd[h] += to * to;
      }
    }
#pragma GCC unroll kStepVectors
    for (std::size_t h = 0; h < kStepVectors; ++h) {
      V sum = even[h] + odd[h];
      if (pairs_end < d) {
        const V t = (x.template pack<V>(i + h * kLanes, pairs_end) -
                     z[pairs_end]) *
                    il[pairs_end];
        sum += t * t;
      }
      lanes::store(s + i + h * kLanes, sum);
    }
  }
  for (; i < n; ++i) {
    double even = 0.0;
    double odd = 0.0;
    for (std::size_t k = 0; k < pairs_end; k += 2) {
      const double te = (x.at(i, k) - z[k]) * il[k];
      const double to = (x.at(i, k + 1) - z[k + 1]) * il[k + 1];
      even += te * te;
      odd += to * to;
    }
    double sum = even + odd;
    if (pairs_end < d) {
      const double t = (x.at(i, pairs_end) - z[pairs_end]) * il[pairs_end];
      sum += t * t;
    }
    s[i] = sum;
  }
}

[[gnu::flatten]] void feature_major_sse2(const FeatureMajor& x, std::size_t n,
                                         const double* z, const double* il,
                                         std::size_t d, double* s) {
  squared_distances<f64x2>(x, n, z, il, d, s);
}

[[gnu::target("avx2"), gnu::flatten]] void feature_major_avx2(
    const FeatureMajor& x, std::size_t n, const double* z, const double* il,
    std::size_t d, double* s) {
  squared_distances<f64x4>(x, n, z, il, d, s);
}

[[gnu::target("avx512f"), gnu::flatten]] void feature_major_avx512(
    const FeatureMajor& x, std::size_t n, const double* z, const double* il,
    std::size_t d, double* s) {
  squared_distances<f64x8>(x, n, z, il, d, s);
}

// The squared distances of one chunk: training rows (row-major) at the
// baseline width, candidate blocks (feature-major) in the host's clone.
void chunk_distances(const RowMajor& x, std::size_t n, const double* z,
                     const double* il, std::size_t d, double* s) {
  squared_distances<f64x2>(x, n, z, il, d, s);
}

void chunk_distances(const FeatureMajor& x, std::size_t n, const double* z,
                     const double* il, std::size_t d, double* s) {
  lanes::feature_major_squared_distances(lanes::host_isa(), x.x, x.stride, n,
                                         z, il, d, s);
}

// out[i] = k(x_i, z) for n points, in Kernel::kChunk-point chunks from the
// first: distances into a stack buffer, then the kernel's elementwise loop.
template <class Points>
void eval_chunked(const Kernel& kernel, const double* il, const Points& x,
                  std::size_t n, const Vector& z, double* out) {
  double s[Kernel::kChunk];
  for (std::size_t base = 0; base < n; base += Kernel::kChunk) {
    const std::size_t c = std::min(Kernel::kChunk, n - base);
    chunk_distances(x.from(base), c, z.data(), il, kernel.dims(), s);
    kernel.from_squared_distances(s, c, out + base);
  }
}

// ---------------------------------------------------------------------------
// exp, lane by lane: the arithmetic of glibc 2.36's two-lane libmvec exp
// (_ZGVbN2v_exp in its SSE4.1 variant, which its resolver picks on any CPU
// with SSE4.1). With n = round(x * 1024 / ln 2) = 1024 m + j, 0 <= j < 1024:
//   exp(x) = 2^m * 2^(j / 1024) * exp(r),  r = x - n ln 2 / 1024,
// with r reduced against ln 2 / 1024 in two parts, exp(r) as
// 1 + r (1 + c2 r + c3 r^2), 2^(j / 1024) from a table and 2^m added to the
// exponent bits. Every step is one IEEE operation on one lane, so any lane
// count gives the two-lane library's bits (test_kernel holds them to the
// installed library's).

constexpr double kExpInvLn2N = 0x1.71547652b82fep+10;  // 1024 / ln 2
// Adding it rounds t, |t| < 2^51, to the integer in the low mantissa bits.
constexpr double kExpShifter = 0x1.8p+52;
constexpr double kExpLn2NHi = 0x1.62e42fec00000p-11;  // ln 2 / 1024
constexpr double kExpLn2NLo = 0x1.d1cf79abc9e3bp-42;  // ... the rest of it
constexpr double kExpC2 = 0x1.0000001ebfbe0p-1;
constexpr double kExpC3 = 0x1.5555555555556p-3;
constexpr std::uint64_t kAbsBits = 0x7fffffffffffffff;
// A lane whose |x| has greater bits (|x| > 708.396, inf, NaN) takes libm's
// scalar exp, as libmvec's lanes do. Its low half is all ones, so the test
// is one on the high 32 bits: hi(|x|) > 0x4086232a.
constexpr std::uint64_t kExpLaneBound = 0x4086232affffffff;
constexpr std::int32_t kExpLaneBoundHigh = kExpLaneBound >> 32;

// T[j] = 2^(j / 1024), j < 1024: libmvec's table, each entry glibc's long
// double exp2l rounded to double.
const double* exp2_table() {
  static const std::array<double, 1024> table = [] {
    std::array<double, 1024> t{};
    for (std::size_t j = 0; j < t.size(); ++j) {
      t[j] = static_cast<double>(
          std::exp2l(static_cast<long double>(j) / 1024.0L));
    }
    return t;
  }();
  return table.data();
}

bool exp_outside_lanes(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return (bits & kAbsBits) > kExpLaneBound;
}

// The integer lanes of a Bytes-byte lane type: 64-bit unsigned for the
// exp's bit arithmetic, 32-bit signed halves for its range test, which is
// one compare at every width (SSE2 has no 64-bit one).
template <std::size_t Bytes>
struct IntLanes {
  typedef std::uint64_t U __attribute__((vector_size(Bytes)));
  typedef std::int32_t I __attribute__((vector_size(Bytes)));
};

// exp of each lane of x. Lanes outside the range are set in `outside` and
// their value is left for the caller to redo with libm's exp.
template <class V>
struct LaneExp {
  using U = typename IntLanes<sizeof(V)>::U;
  using I = typename IntLanes<sizeof(V)>::I;
  const double* table;
  I& outside;

  [[gnu::always_inline]] V operator()(const V& x) const {
    const V t = x * kExpInvLn2N;
    const V sh = t + kExpShifter;
    const V n = sh - kExpShifter;
    const V r = (x - n * kExpLn2NHi) - n * kExpLn2NLo;
    const V q = 1.0 + r * ((kExpC3 * r + kExpC2) * r + 1.0);
    const U bits = (U)sh;
    V tj;  // the table lookup, one scalar load per lane
#pragma GCC unroll 8
    for (std::size_t k = 0; k < sizeof(V) / sizeof(double); ++k) {
      tj[k] = table[bits[k] & 1023];
    }
    // Each lane's high half against the bound's, its low half against
    // INT32_MAX, which no half exceeds.
    I bound;
#pragma GCC unroll 16
    for (std::size_t k = 0; k < sizeof(I) / sizeof(std::int32_t); ++k) {
      bound[k] = k % 2 == 1 ? kExpLaneBoundHigh : INT32_MAX;
    }
    outside |= (I)((U)x & kAbsBits) > bound;
    return (V)((U)(tj * q) + ((bits & ~std::uint64_t{1023}) << 42));
  }
};

// sqrt of each lane: one sqrtpd at the clone's width, since the per-lane
// std::sqrt sets no errno in this unit.
template <class V>
[[gnu::always_inline]] inline V lane_sqrt(const V& v) {
  V r;
#pragma GCC unroll 8
  for (std::size_t k = 0; k < sizeof(V) / sizeof(double); ++k) {
    r[k] = std::sqrt(v[k]);
  }
  return r;
}

[[gnu::always_inline]] inline double lane_sqrt(double v) {
  return std::sqrt(v);
}

// Each kernel's k(s) at a lane type L, a lane vector or double, whose exp is
// `exp`: the lane exp, or libm's for the scalar rule. The operation order is
// the one GCC 12's fast-math vectorizer gave the loops these replaced, so
// every kernel value kept its bits.
struct Matern32Values {
  double amp;
  // s3d = sqrt(s) sqrt(3): k = (exp(-s3d) amp) (s3d + 1).
  template <class L, class Exp>
  [[gnu::always_inline]] L operator()(const L& s, const Exp& exp) const {
    const L s3d = lane_sqrt(s) * 0x1.bb67ae8584caap+0;
    return (exp(-s3d) * amp) * (s3d + 1.0);
  }
};

struct RbfValues {
  double amp;
  // k = exp(s (-1/2)) amp.
  template <class L, class Exp>
  [[gnu::always_inline]] L operator()(const L& s, const Exp& exp) const {
    return exp(s * -0.5) * amp;
  }
};

// out[i] = f(s[i]), i < n; out must not overlap s. Points [0, n - n % 2)
// take the lane exp, in whole lanes of V and then two-lane steps; an odd
// last point takes the scalar rule, libm's exp. A lane whose exp argument
// is out of range is flagged by one OR-accumulated compare and redone by
// the scalar rule after the loop, as libmvec redoes it. f is taken by
// value: no store to out can alias its amplitude, which stays in a register.
template <class V, class F>
void values_in(F f, const double* s, std::size_t n, double* out) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  const double* table = exp2_table();
  typename IntLanes<sizeof(V)>::I outside{};
  typename IntLanes<sizeof(f64x2)>::I outside2{};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    lanes::store(out + i,
                 f(lanes::load<V>(s + i), LaneExp<V>{table, outside}));
  }
  for (; i + 2 <= n; i += 2) {
    lanes::store(out + i, f(lanes::load<f64x2>(s + i),
                            LaneExp<f64x2>{table, outside2}));
  }
  if (i < n) out[i] = f(s[i], [](double x) { return std::exp(x); });

  std::int32_t flagged = 0;
  for (std::size_t k = 0; k < 2 * kLanes; ++k) flagged |= outside[k];
  for (std::size_t k = 0; k < 4; ++k) flagged |= outside2[k];
  if (flagged == 0) return;
  for (std::size_t j = 0; j < i; ++j) {
    bool redo = false;
    const double v = f(s[j], [&redo](double x) {
      redo = exp_outside_lanes(x);
      return std::exp(x);
    });
    if (redo) out[j] = v;
  }
}

template <class F>
[[gnu::flatten]] void values_sse2(const F& f, const double* s, std::size_t n,
                                  double* out) {
  values_in<f64x2>(f, s, n, out);
}

template <class F>
[[gnu::target("avx2"), gnu::flatten]] void values_avx2(const F& f,
                                                       const double* s,
                                                       std::size_t n,
                                                       double* out) {
  values_in<f64x4>(f, s, n, out);
}

template <class F>
[[gnu::target("avx512f"), gnu::flatten]] void values_avx512(const F& f,
                                                           const double* s,
                                                           std::size_t n,
                                                           double* out) {
  values_in<f64x8>(f, s, n, out);
}

template <class F>
void values(lanes::Isa isa, const F& f, const double* s, std::size_t n,
            double* out) {
  switch (isa) {
    case lanes::Isa::kAvx512:
      values_avx512(f, s, n, out);
      return;
    case lanes::Isa::kAvx2:
      values_avx2(f, s, n, out);
      return;
    case lanes::Isa::kSse2:
      break;
  }
  values_sse2(f, s, n, out);
}

}  // namespace

void lanes::matern32_values(Isa isa, double amp, const double* s,
                            std::size_t n, double* out) {
  values(isa, Matern32Values{amp}, s, n, out);
}

void lanes::rbf_values(Isa isa, double amp, const double* s, std::size_t n,
                       double* out) {
  values(isa, RbfValues{amp}, s, n, out);
}

void Matern32Kernel::from_squared_distances(const double* s, std::size_t n,
                                            double* out) const {
  lanes::matern32_values(lanes::host_isa(), prior_variance(), s, n, out);
}

void RbfKernel::from_squared_distances(const double* s, std::size_t n,
                                       double* out) const {
  lanes::rbf_values(lanes::host_isa(), prior_variance(), s, n, out);
}

void lanes::feature_major_squared_distances(Isa isa, const double* x,
                                            std::size_t stride, std::size_t n,
                                            const double* z, const double* il,
                                            std::size_t d, double* s) {
  const FeatureMajor points{x, stride};
  switch (isa) {
    case Isa::kAvx512:
      feature_major_avx512(points, n, z, il, d, s);
      return;
    case Isa::kAvx2:
      feature_major_avx2(points, n, z, il, d, s);
      return;
    case Isa::kSse2:
      break;
  }
  feature_major_sse2(points, n, z, il, d, s);
}

Kernel::Kernel(Vector lengthscales, double amplitude)
    : lengthscales_(std::move(lengthscales)), amplitude_(amplitude) {
  if (lengthscales_.empty())
    throw std::invalid_argument("Kernel: empty length-scale vector");
  for (double l : lengthscales_) {
    if (!(l > 0.0))
      throw std::invalid_argument("Kernel: length-scales must be > 0");
  }
  if (!(amplitude_ > 0.0))
    throw std::invalid_argument("Kernel: amplitude must be > 0");
  inv_lengthscales_.resize(lengthscales_.size());
  for (std::size_t i = 0; i < lengthscales_.size(); ++i) {
    inv_lengthscales_[i] = 1.0 / lengthscales_[i];
  }
}

double Kernel::operator()(const Vector& a, const Vector& b) const {
  if (a.size() != dims() || b.size() != dims())
    throw std::invalid_argument("Kernel: size mismatch");
  double s = 0.0;
  squared_distances<f64x2>(RowMajor{a.data(), dims()}, 1, b.data(),
                           inv_lengthscales_.data(), dims(), &s);
  double k = 0.0;
  from_squared_distances(&s, 1, &k);
  return k;
}

void Kernel::eval_batch(const double* xs, std::size_t n, const Vector& z,
                        double* out) const {
  eval_chunked(*this, inv_lengthscales_.data(), RowMajor{xs, dims()}, n, z,
               out);
}

void Kernel::eval_columns(const linalg::FeatureMajorPoints& xs,
                          std::size_t j0, std::size_t j1, const Vector& z,
                          double* out) const {
  eval_chunked(*this, inv_lengthscales_.data(),
               FeatureMajor{xs.feature(0) + j0, xs.size()}, j1 - j0, z, out);
}

double anisotropic_distance(const Vector& a, const Vector& b,
                            const Vector& lengthscales) {
  if (a.size() != b.size() || a.size() != lengthscales.size())
    throw std::invalid_argument("anisotropic_distance: size mismatch");
  Vector il(lengthscales.size());
  for (std::size_t k = 0; k < il.size(); ++k) il[k] = 1.0 / lengthscales[k];
  double s = 0.0;
  squared_distances<f64x2>(RowMajor{a.data(), a.size()}, 1, b.data(),
                           il.data(), a.size(), &s);
  return std::sqrt(s);
}

std::unique_ptr<Kernel> Matern32Kernel::clone() const {
  return std::make_unique<Matern32Kernel>(*this);
}

std::unique_ptr<Kernel> RbfKernel::clone() const {
  return std::make_unique<RbfKernel>(*this);
}

}  // namespace edgebol::gp
