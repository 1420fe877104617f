#include "gp/hyperopt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "linalg/cholesky.hpp"

namespace edgebol::gp {

std::unique_ptr<Kernel> GpHyperparams::make_kernel() const {
  switch (family) {
    case KernelFamily::kRbf:
      return std::make_unique<RbfKernel>(lengthscales, amplitude);
    case KernelFamily::kMatern32:
      break;
  }
  return std::make_unique<Matern32Kernel>(lengthscales, amplitude);
}

namespace {

// Buffers one LML probe needs: the Gram matrix, its factor, and the solve
// output. A probe is an independent O(n^3) build, but nothing about it has
// to allocate — reusing one workspace per thread across the dozens of
// probes a fit makes keeps the hyperopt phase allocation-free in steady
// state (the pre-workspace engine rebuilt a GpRegressor per probe: a kernel
// clone, n input copies and a growing factor each time).
struct LmlWorkspace {
  linalg::Matrix gram;        // lower triangle filled per probe
  std::vector<double> zdata;  // inputs packed row-major, once per probe
  linalg::CholeskyFactor chol;
  Vector w;
};

double lml_with_workspace(const GpHyperparams& hp,
                          const std::vector<Vector>& z, const Vector& y,
                          LmlWorkspace& ws) {
  const std::size_t n = z.size();
  if (n == 0) return 0.0;
  const std::size_t d = z.front().size();
  const auto kernel = hp.make_kernel();
  if (kernel->dims() != d)
    throw std::invalid_argument(
        "log_marginal_likelihood: hyperparameter/input dimension mismatch");

  ws.zdata.resize(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(z[i].begin(), z[i].end(), ws.zdata.begin() + i * d);
  }
  // Only the lower triangle is filled (the factorization reads nothing
  // else); row i is one batched kernel sweep against points 0..i.
  if (ws.gram.rows() != n) ws.gram = linalg::Matrix(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    kernel->eval_batch(ws.zdata.data(), i + 1, z[i], &ws.gram(i, 0));
    ws.gram(i, i) += hp.noise_variance;
  }
  ws.chol.factorize(ws.gram);  // reuses packed storage; throws on non-SPD
  ws.chol.solve_lower_into(y, ws.w);
  return -0.5 * linalg::dot(ws.w, ws.w) - 0.5 * ws.chol.log_det() -
         0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
}

double safe_lml(const GpHyperparams& hp, const std::vector<Vector>& z,
                const Vector& y) {
  // One workspace per thread: pool workers and the calling thread each keep
  // their buffers warm across every probe of the fit (and across fits).
  thread_local LmlWorkspace ws;
  try {
    return lml_with_workspace(hp, z, y, ws);
  } catch (const std::runtime_error&) {
    // Numerically non-SPD corner of the hyperparameter space.
    return -std::numeric_limits<double>::infinity();
  }
}

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

// Below this much work (probes x n^3) a batch stays on the calling thread.
// Measured on a shared 4-vCPU host: a pool dispatch costs 0.02-0.15 ms,
// while one n^3 unit of LML work costs ~0.2 ns, so a batch at the cutoff is
// ~0.4 ms of serial work (e.g. 8 probes at n = 64). The small batches below
// it lost to the dispatch: bench_micro_gp's smoke fit (8 probes, then
// two-probe pairs, at n = 20) read 0.35-1.03x pooled against serial.
constexpr double kPooledProbeWorkMin = 2e6;

// Evaluates every probe's LML, on the pool when one is configured and the
// batch is big enough to pay for it. Probes are whole O(n^3) GP builds, so
// grain 1 keeps all threads busy; the output slot per probe is fixed and
// each probe runs the same code either way, so the fill is deterministic
// and bit-identical for any thread count.
std::vector<double> evaluate_probes(const std::vector<GpHyperparams>& probes,
                                    const std::vector<Vector>& z,
                                    const Vector& y,
                                    const HyperoptOptions& opts) {
  std::vector<double> lml(probes.size());
  auto eval_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) lml[i] = safe_lml(probes[i], z, y);
  };
  const double n = static_cast<double>(z.size());
  const double work = static_cast<double>(probes.size()) * n * n * n;
  if (opts.pool && work >= kPooledProbeWorkMin) {
    // sync: probe i writes only lml[i] (disjoint per index); Gram/factor
    // scratch is thread_local, and z/y are read-only shared.
    opts.pool->parallel_for(probes.size(), 1, eval_range);
  } else {
    eval_range(0, probes.size());
  }
  return lml;
}

}  // namespace

double log_marginal_likelihood(const GpHyperparams& hp,
                               const std::vector<Vector>& z, const Vector& y) {
  LmlWorkspace ws;
  return lml_with_workspace(hp, z, y, ws);
}

GpHyperparams fit_hyperparameters(const std::vector<Vector>& z,
                                  const Vector& y, Rng& rng,
                                  const HyperoptOptions& opts) {
  if (z.empty() || z.size() != y.size())
    throw std::invalid_argument("fit_hyperparameters: bad dataset");
  const std::size_t dims = z.front().size();
  for (const Vector& row : z) {
    if (row.size() != dims)
      throw std::invalid_argument("fit_hyperparameters: ragged dataset");
  }

  GpHyperparams best;
  best.lengthscales.assign(dims, 1.0);
  double best_lml = safe_lml(best, z, y);

  // Phase 1: log-uniform random probing of the whole box. All random draws
  // happen up front on the caller's Rng (same draw order as a serial loop),
  // then the probes — each an independent GP build — are scored
  // concurrently. The winner is folded in probe order, so the selected
  // incumbent matches the serial scan exactly.
  std::vector<GpHyperparams> probes;
  probes.reserve(static_cast<std::size_t>(std::max(opts.num_random_starts, 0)));
  for (int s = 0; s < opts.num_random_starts; ++s) {
    GpHyperparams hp;
    hp.lengthscales.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      hp.lengthscales[d] =
          log_uniform(rng, opts.lengthscale_min, opts.lengthscale_max);
    }
    hp.amplitude = log_uniform(rng, opts.amplitude_min, opts.amplitude_max);
    hp.noise_variance = log_uniform(rng, opts.noise_min, opts.noise_max);
    probes.push_back(std::move(hp));
  }
  const std::vector<double> probe_lml = evaluate_probes(probes, z, y, opts);
  for (std::size_t s = 0; s < probes.size(); ++s) {
    if (probe_lml[s] > best_lml) {
      best_lml = probe_lml[s];
      best = probes[s];
    }
  }

  // Phase 2: coordinate-wise multiplicative refinement with a shrinking
  // step. Each coordinate's up/down pair is evaluated from the same
  // incumbent (concurrently when a pool is set), then applied greedily in
  // the fixed order (up first), keeping the refinement path identical for
  // any thread count.
  double step = 2.0;
  for (int round = 0; round < opts.refine_rounds; ++round) {
    for (std::size_t coord = 0; coord < dims + 2; ++coord) {
      std::vector<GpHyperparams> pair;
      for (double factor : {step, 1.0 / step}) {
        GpHyperparams hp = best;
        if (coord < dims) {
          hp.lengthscales[coord] =
              std::clamp(hp.lengthscales[coord] * factor,
                         opts.lengthscale_min, opts.lengthscale_max);
        } else if (coord == dims) {
          hp.amplitude = std::clamp(hp.amplitude * factor, opts.amplitude_min,
                                    opts.amplitude_max);
        } else {
          hp.noise_variance = std::clamp(hp.noise_variance * factor,
                                         opts.noise_min, opts.noise_max);
        }
        pair.push_back(std::move(hp));
      }
      const std::vector<double> pair_lml = evaluate_probes(pair, z, y, opts);
      for (std::size_t k = 0; k < pair.size(); ++k) {
        if (pair_lml[k] > best_lml) {
          best_lml = pair_lml[k];
          best = pair[k];
        }
      }
    }
    step = std::sqrt(step);
  }
  return best;
}

}  // namespace edgebol::gp
