// Covariance functions over the joint context-control space Z = C x X.
//
// The paper (§5, "Kernel selection") requires a stationary, anisotropic
// kernel and picks the Matérn family with nu = 3/2 (once-differentiable
// sample paths), with per-dimension length-scales L^(i) (eq. 5-6). We also
// provide an anisotropic RBF for ablations.
//
// Both are a function of one quantity, the squared scaled distance
// s = sum_k ((z_k - z'_k) / l_k)^2, so evaluation has two halves, both in
// gp/kernel.cpp (strict IEEE) and both cloned at every vector width (SSE2,
// AVX2, AVX-512F; gp/lanes.hpp) with the same bits:
//  - The distances: one loop for points stored either way — row-major
//    training inputs or feature-major candidates
//    (linalg::FeatureMajorPoints) — with its summation order written out
//    (see squared_distances there).
//  - The elementwise s -> k(s) loop of each kernel, whose exp is the
//    arithmetic of glibc 2.36's two-lane libmvec exp written out per lane.
//    A chunk's odd last point, and a lane whose exp argument is out of
//    that exp's range (|x| > 708.396, inf, NaN), take libm's scalar exp.
// So the values depend neither on the optimization level nor on the target
// ISA or a sanitizer preset; the scalar exp ties them to libm's.

#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace edgebol::gp {

using linalg::Vector;

/// A stationary anisotropic covariance function k(z, z') = f(s) of the
/// squared scaled distance s.
class Kernel {
 public:
  /// Batched evaluations run in chunks of this many points from the start
  /// of the batch: squared distances into a stack buffer, then one
  /// from_squared_distances call. The chunk boundaries are part of the
  /// result's bits (a chunk's odd last point takes the scalar exp). The GP
  /// engine's 512-column blocks are chunk multiples, so a range evaluated
  /// whole or block by block gives the same values.
  static constexpr std::size_t kChunk = 256;

  virtual ~Kernel() = default;

  /// Covariance between two points. Both must have dims() entries.
  double operator()(const Vector& a, const Vector& b) const;

  /// out[i] = k(x_i, z) for points packed row-major: x_i = xs[i * dims()
  /// .. (i + 1) * dims()).
  void eval_batch(const double* xs, std::size_t n, const Vector& z,
                  double* out) const;

  /// out[j - j0] = k(x_j, z) for points [j0, j1) of a feature-major set.
  /// Same values as eval_batch over the same points packed row-major.
  void eval_columns(const linalg::FeatureMajorPoints& xs, std::size_t j0,
                    std::size_t j1, const Vector& z, double* out) const;

  /// out[i] = f(s[i]), i < n: the kernel as a function of the squared
  /// scaled distance; out must not overlap s. Vectorized across i (an odd
  /// last point takes libm's exp); for the batched evaluations' values,
  /// call it per kChunk-point chunk as they do.
  virtual void from_squared_distances(const double* s, std::size_t n,
                                      double* out) const = 0;

  /// Prior variance k(z, z); for stationary kernels this is the amplitude.
  double prior_variance() const { return amplitude_; }

  /// Input dimensionality (length of the length-scale vector).
  std::size_t dims() const { return lengthscales_.size(); }
  const Vector& lengthscales() const { return lengthscales_; }

  virtual std::unique_ptr<Kernel> clone() const = 0;

 protected:
  /// `lengthscales` must be strictly positive; `amplitude` is the signal
  /// variance s2 (the paper normalizes observations so that s2 < 1).
  Kernel(Vector lengthscales, double amplitude);

 private:
  Vector lengthscales_;
  Vector inv_lengthscales_;  // reciprocals: the distance loop multiplies
  double amplitude_;
};

/// Scaled anisotropic distance of eq. (5):
///   d(z, z') = sqrt( sum_i ((z_i - z'_i) / l_i)^2 ).
double anisotropic_distance(const Vector& a, const Vector& b,
                            const Vector& lengthscales);

/// Matérn kernel with nu = 3/2 (paper eq. 6):
///   k(z, z') = s2 * (1 + sqrt(3) d) * exp(-sqrt(3) d).
class Matern32Kernel final : public Kernel {
 public:
  Matern32Kernel(Vector lengthscales, double amplitude = 1.0)
      : Kernel(std::move(lengthscales), amplitude) {}

  void from_squared_distances(const double* s, std::size_t n,
                              double* out) const override;
  std::unique_ptr<Kernel> clone() const override;
};

/// Anisotropic squared-exponential kernel:
///   k(z, z') = s2 * exp(-d^2 / 2).
class RbfKernel final : public Kernel {
 public:
  RbfKernel(Vector lengthscales, double amplitude = 1.0)
      : Kernel(std::move(lengthscales), amplitude) {}

  void from_squared_distances(const double* s, std::size_t n,
                              double* out) const override;
  std::unique_ptr<Kernel> clone() const override;
};

}  // namespace edgebol::gp
