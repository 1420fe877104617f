// The kernels' elementwise s -> k(s) loops: one exp per point pair, so
// transcendental-bound over the 11^4 grid. This is the one unit built with
// -ffast-math (src/CMakeLists.txt), which lets GCC vectorize the loops with
// libmvec's two-lane exp, with -O3's vectorizer at -O2 too, so both levels
// run the same exp. Keep anything else out of it, ISA clones included (lint
// rule R10): the squared distances feeding these loops are strict IEEE
// (gp/kernel.cpp).

#include <cmath>

#include "gp/kernel.hpp"

namespace edgebol::gp {

void Matern32Kernel::from_squared_distances(const double* s, std::size_t n,
                                            double* out) const {
  const double amp = prior_variance();
  const double sqrt3 = std::sqrt(3.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double s3d = sqrt3 * std::sqrt(s[i]);
    out[i] = amp * (1.0 + s3d) * std::exp(-s3d);
  }
}

void RbfKernel::from_squared_distances(const double* s, std::size_t n,
                                       double* out) const {
  const double amp = prior_variance();
  for (std::size_t i = 0; i < n; ++i) out[i] = amp * std::exp(-0.5 * s[i]);
}

}  // namespace edgebol::gp
