// Kernel hyperparameter fitting by maximizing the log marginal likelihood
// over prior data (paper §5: hyperparameters are optimized *before* running
// the algorithm and held constant during execution, to keep the confidence
// intervals honest).
//
// The optimizer is derivative-free: multi-start random search in log-space
// followed by coordinate-wise multiplicative refinement. With the small
// pre-production datasets the paper assumes, this is both robust and fast.
//
// Likelihood probes are independent O(n^3) GP builds, so they parallelize
// on a common::ThreadPool: phase 1 pre-draws every probe's hyperparameters
// from the Rng sequentially (the draw sequence is identical to the serial
// path) and evaluates the probes concurrently, picking the winner in probe
// order; phase 2 evaluates each coordinate's up/down pair from the same
// incumbent concurrently and applies the greedy updates in a fixed order.
// The fitted result is therefore bit-identical for any thread count.

#pragma once

#include <memory>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gp/gp_regressor.hpp"

namespace edgebol::gp {

enum class KernelFamily {
  kMatern32,  // the paper's choice (eq. 6)
  kRbf,       // squared-exponential, for ablations
};

/// The hyperparameters of an anisotropic GP prior plus the observation-noise
/// variance zeta^2 of eqs. (3)-(4).
struct GpHyperparams {
  Vector lengthscales;      // one per input dimension, > 0
  double amplitude = 1.0;   // signal variance k(z, z)
  double noise_variance = 1e-2;
  KernelFamily family = KernelFamily::kMatern32;

  /// Builds the kernel these hyperparameters describe.
  std::unique_ptr<Kernel> make_kernel() const;
};

struct HyperoptOptions {
  int num_random_starts = 64;  // log-uniform random probes
  int refine_rounds = 4;       // coordinate-descent sweeps on the best probe
  // The search box: probes draw, and refinement clamps, inside it.
  static constexpr double lengthscale_min = 0.02;
  static constexpr double lengthscale_max = 20.0;
  static constexpr double amplitude_min = 0.05;
  static constexpr double amplitude_max = 10.0;
  static constexpr double noise_min = 1e-5;
  static constexpr double noise_max = 1.0;

  /// When set, LML probes are evaluated concurrently on this pool. The
  /// result is bit-identical to pool == nullptr (see the header comment).
  std::shared_ptr<common::ThreadPool> pool;
};

/// Log marginal likelihood of (z, y) under the given hyperparameters.
double log_marginal_likelihood(const GpHyperparams& hp,
                               const std::vector<Vector>& z, const Vector& y);

/// Fit hyperparameters to prior data by LML maximization.
/// `z` must be non-empty and rectangular; throws otherwise.
GpHyperparams fit_hyperparameters(const std::vector<Vector>& z,
                                  const Vector& y, Rng& rng,
                                  const HyperoptOptions& opts = {});

}  // namespace edgebol::gp
