// Covariance functions over the joint context-control space Z = C x X.
//
// The paper (§5, "Kernel selection") requires a stationary, anisotropic
// kernel and picks the Matérn family with nu = 3/2 (once-differentiable
// sample paths), with per-dimension length-scales L^(i) (eq. 5-6). We also
// provide an anisotropic RBF for ablations.

#pragma once

#include <memory>
#include <vector>

#include "linalg/matrix.hpp"

namespace edgebol::gp {

using linalg::Vector;

/// Interface for stationary covariance functions k(z, z').
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance between two points. Both must have dims() entries.
  virtual double operator()(const Vector& a, const Vector& b) const = 0;

  /// Batched evaluation against packed row-major points: out[i] = k(x_i, z)
  /// where x_i = xs[i*dims() .. (i+1)*dims()). The default implementation
  /// loops over operator(); Matern32Kernel/RbfKernel override it with
  /// devirtualized, vectorizable chunked loops (internal chunk: 256 points).
  /// Results are identical whether a range is evaluated whole or in blocks,
  /// provided block boundaries fall on chunk multiples — the GP engine's
  /// column grain (512) guarantees this. The engine's add() fold and its
  /// cache rebuild make the same per-block call for every training row, so
  /// the tracked cache sees the same kernel values either way and stays
  /// bitwise independent of how it was built. When the library is built with
  /// vectorized math (see src/CMakeLists.txt) batched values may differ from
  /// the scalar operator() at the last-ulp level.
  virtual void eval_batch(const double* xs, std::size_t n, const Vector& z,
                          double* out) const;

  /// Prior variance k(z, z); for stationary kernels this is the amplitude.
  virtual double prior_variance() const = 0;

  /// Input dimensionality (length of the length-scale vector).
  virtual std::size_t dims() const = 0;

  virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Scaled anisotropic distance of eq. (5):
///   d(z, z') = sqrt( sum_i ((z_i - z'_i) / l_i)^2 ).
double anisotropic_distance(const Vector& a, const Vector& b,
                            const Vector& lengthscales);

/// Matérn kernel with nu = 3/2 (paper eq. 6):
///   k(z, z') = s2 * (1 + sqrt(3) d) * exp(-sqrt(3) d).
class Matern32Kernel final : public Kernel {
 public:
  /// `lengthscales` must be strictly positive; `amplitude` is the signal
  /// variance s2 (the paper normalizes observations so that s2 < 1).
  Matern32Kernel(Vector lengthscales, double amplitude = 1.0);

  double operator()(const Vector& a, const Vector& b) const override;
  void eval_batch(const double* xs, std::size_t n, const Vector& z,
                  double* out) const override;
  double prior_variance() const override { return amplitude_; }
  std::size_t dims() const override { return lengthscales_.size(); }
  std::unique_ptr<Kernel> clone() const override;

  const Vector& lengthscales() const { return lengthscales_; }

 private:
  Vector lengthscales_;
  Vector inv_lengthscales_;  // reciprocals, shared by scalar & batched paths
  double amplitude_;
};

/// Anisotropic squared-exponential kernel:
///   k(z, z') = s2 * exp(-d^2 / 2).
class RbfKernel final : public Kernel {
 public:
  RbfKernel(Vector lengthscales, double amplitude = 1.0);

  double operator()(const Vector& a, const Vector& b) const override;
  void eval_batch(const double* xs, std::size_t n, const Vector& z,
                  double* out) const override;
  double prior_variance() const override { return amplitude_; }
  std::size_t dims() const override { return lengthscales_.size(); }
  std::unique_ptr<Kernel> clone() const override;

  const Vector& lengthscales() const { return lengthscales_; }

 private:
  Vector lengthscales_;
  Vector inv_lengthscales_;  // reciprocals, shared by scalar & batched paths
  double amplitude_;
};

}  // namespace edgebol::gp
