#include "gp/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace edgebol::gp {

namespace {

void check_lengthscales(const Vector& ls) {
  if (ls.empty())
    throw std::invalid_argument("Kernel: empty length-scale vector");
  for (double l : ls) {
    if (!(l > 0.0))
      throw std::invalid_argument("Kernel: length-scales must be > 0");
  }
}

void check_amplitude(double a) {
  if (!(a > 0.0)) throw std::invalid_argument("Kernel: amplitude must be > 0");
}

}  // namespace

void Kernel::eval_batch(const double* xs, std::size_t n, const Vector& z,
                        double* out) const {
  const std::size_t d = dims();
  Vector x(d);
  for (std::size_t i = 0; i < n; ++i) {
    x.assign(xs + i * d, xs + (i + 1) * d);
    out[i] = (*this)(x, z);
  }
}

double anisotropic_distance(const Vector& a, const Vector& b,
                            const Vector& lengthscales) {
  if (a.size() != b.size() || a.size() != lengthscales.size())
    throw std::invalid_argument("anisotropic_distance: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = (a[i] - b[i]) / lengthscales[i];
    s += d * d;
  }
  return std::sqrt(s);
}

Matern32Kernel::Matern32Kernel(Vector lengthscales, double amplitude)
    : lengthscales_(std::move(lengthscales)), amplitude_(amplitude) {
  check_lengthscales(lengthscales_);
  check_amplitude(amplitude_);
  inv_lengthscales_.resize(lengthscales_.size());
  for (std::size_t i = 0; i < lengthscales_.size(); ++i) {
    inv_lengthscales_[i] = 1.0 / lengthscales_[i];
  }
}

double Matern32Kernel::operator()(const Vector& a, const Vector& b) const {
  if (a.size() != b.size() || a.size() != lengthscales_.size())
    throw std::invalid_argument("Matern32Kernel: size mismatch");
  const double* il = inv_lengthscales_.data();
  double s = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double t = (a[k] - b[k]) * il[k];
    s += t * t;
  }
  const double s3d = std::sqrt(3.0) * std::sqrt(s);
  return amplitude_ * (1.0 + s3d) * std::exp(-s3d);
}

void Matern32Kernel::eval_batch(const double* xs, std::size_t n,
                                const Vector& z, double* out) const {
  const std::size_t d = lengthscales_.size();
  const double* il = inv_lengthscales_.data();
  const double* zp = z.data();
  const double amp = amplitude_;
  const double sqrt3 = std::sqrt(3.0);
  // Two passes per chunk: squared distances into a stack buffer, then one
  // elementwise sqrt/exp loop the compiler can vectorize (the fused form
  // hides the transcendentals behind an unvectorizable reduction). kChunk
  // divides the engine's column grain, so chunk boundaries — and therefore
  // results — are identical whether a range arrives whole or as blocks.
  constexpr std::size_t kChunk = 256;
  double s[kChunk];
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t c = std::min(kChunk, n - base);
    const double* xb = xs + base * d;
    for (std::size_t i = 0; i < c; ++i) {
      const double* x = xb + i * d;
      double acc = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        const double t = (x[k] - zp[k]) * il[k];
        acc += t * t;
      }
      s[i] = acc;
    }
    double* ob = out + base;
    for (std::size_t i = 0; i < c; ++i) {
      const double s3d = sqrt3 * std::sqrt(s[i]);
      ob[i] = amp * (1.0 + s3d) * std::exp(-s3d);
    }
  }
}

std::unique_ptr<Kernel> Matern32Kernel::clone() const {
  return std::make_unique<Matern32Kernel>(*this);
}

RbfKernel::RbfKernel(Vector lengthscales, double amplitude)
    : lengthscales_(std::move(lengthscales)), amplitude_(amplitude) {
  check_lengthscales(lengthscales_);
  check_amplitude(amplitude_);
  inv_lengthscales_.resize(lengthscales_.size());
  for (std::size_t i = 0; i < lengthscales_.size(); ++i) {
    inv_lengthscales_[i] = 1.0 / lengthscales_[i];
  }
}

double RbfKernel::operator()(const Vector& a, const Vector& b) const {
  if (a.size() != b.size() || a.size() != lengthscales_.size())
    throw std::invalid_argument("RbfKernel: size mismatch");
  const double* il = inv_lengthscales_.data();
  double s = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double t = (a[k] - b[k]) * il[k];
    s += t * t;
  }
  return amplitude_ * std::exp(-0.5 * s);
}

void RbfKernel::eval_batch(const double* xs, std::size_t n, const Vector& z,
                           double* out) const {
  const std::size_t d = lengthscales_.size();
  const double* il = inv_lengthscales_.data();
  const double* zp = z.data();
  const double amp = amplitude_;
  constexpr std::size_t kChunk = 256;  // see Matern32Kernel::eval_batch
  double s[kChunk];
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t c = std::min(kChunk, n - base);
    const double* xb = xs + base * d;
    for (std::size_t i = 0; i < c; ++i) {
      const double* x = xb + i * d;
      double acc = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        const double t = (x[k] - zp[k]) * il[k];
        acc += t * t;
      }
      s[i] = acc;
    }
    double* ob = out + base;
    for (std::size_t i = 0; i < c; ++i) {
      ob[i] = amp * std::exp(-0.5 * s[i]);
    }
  }
}

std::unique_ptr<Kernel> RbfKernel::clone() const {
  return std::make_unique<RbfKernel>(*this);
}

}  // namespace edgebol::gp
