// The kernels' squared distances and everything but their elementwise
// s -> k(s) loops (gp/kernel_fast_math.cpp). This unit is strict IEEE: it
// is never built with -ffast-math, so the summation order below is the
// program's, not the compiler's.

#include "gp/kernel.hpp"

#include <algorithm>
#include <cmath>
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
// That is the order GCC 12's -O3 -ffast-math vectorizer gave the plain
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

}  // namespace

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
