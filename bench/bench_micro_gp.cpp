// Phase-by-phase benchmark harness for the GP posterior engine.
//
// Compares the batched, cache-packed engine (gp::GpRegressor) against a
// reference scalar implementation written the way the pre-batching engine
// worked: per-candidate std::vector<Vector> substitution columns, a virtual
// kernel call per point pair, and a fresh allocation per triangular solve.
// Both sides run the same math, so the smoke mode doubles as a correctness
// check (posteriors must agree to 1e-9).
//
// Phases (the decision loop's cost centers, see DESIGN.md "Performance
// model"):
//   track      O(m n^2)  tracked-cache rebuild on a context switch
//   add        O(m n)    per-period fold of one new observation
//   evict      O(m n)    budgeted removal: Givens downdate + cache fold
//                        (baseline refactors + rebuilds, O(n^3 + n^2 m))
//   predict    O(n^2)    cold posterior at a single point
//   hyperopt   O(S n^3)  pre-production LML probes (engine = pooled)
//   full_period          3 surrogates x (posterior scan + add), as EdgeBol
//                        runs every period in steady state
//   decide               one full decision (constraint bounds + safe set +
//                        acquisition) at the FULL 11^4 grid with the
//                        observation budget at 200: the fused sweep
//                        (FusedAcquisition) vs the legacy full rescan,
//                        under per-period budget churn with periodic
//                        re-tracks and threshold moves. Always runs
//                        at full size (even under --smoke) because the
//                        check.sh ceiling gate enforces p99 < 1 ms on it;
//                        engine decisions are asserted identical to the
//                        legacy rescan every iteration.
//
// Emits machine-readable JSON (default BENCH_gp.json):
//   { n_obs, n_candidates, dims, threads, isa, smoke,
//     phases: [{name, baseline_ms, engine_ms, speedup}],
//     metrics: {decide_p50_ms_t1, decide_p99_ms_t1,
//               decide_p50_ms_t8, decide_p99_ms_t8} }
// The decide always sweeps on the calling thread; _t1 is the decide of an
// engine without a pool and _t8 that of an engine whose surrogates hold an
// 8-thread pool (their re-tracks and cache passes run on it, between
// decisions).
// isa names the clones of the rebuild's loops and the cache pass the engine
// ran ("avx512", "avx2" or "sse2", the widest the CPU has; see
// src/gp/lanes.hpp). The phases feed
// scripts/perf_gate.py's speedup mode; the metrics feed its --ceiling mode
// (absolute wall-clock bounds).
//
// Usage: bench_micro_gp [--smoke] [--threads N] [--out PATH]
//   --smoke    small sizes + engine-vs-reference correctness gate (CI).
//   --threads  engine-side pool size (default: hardware concurrency).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <edgebol/edgebol.hpp>

#include "gp/lanes.hpp"

namespace {

using namespace edgebol;
using linalg::Vector;

volatile double g_sink = 0.0;  // keeps timed loops from being optimized out

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Reference scalar engine (pre-batching idiom): one Vector per candidate
// column, virtual kernel evaluation per pair, allocating triangular solves.
// ---------------------------------------------------------------------------
struct RefGp {
  std::unique_ptr<gp::Kernel> kernel;
  double noise;
  std::vector<Vector> z;
  Vector y;
  linalg::CholeskyFactor chol;
  Vector w;

  std::vector<Vector> cands;
  std::vector<Vector> acol;  // acol[j][i] = (L^{-1} K(train, cand j))[i]
  Vector mean, var;

  RefGp(std::unique_ptr<gp::Kernel> k, double noise_var)
      : kernel(std::move(k)), noise(noise_var) {}

  void add(const Vector& zn, double yn) {
    const std::size_t n = z.size();
    Vector k(n);
    for (std::size_t i = 0; i < n; ++i) k[i] = (*kernel)(z[i], zn);
    chol.extend(k, (*kernel)(zn, zn) + noise);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += chol.entry(n, i) * w[i];
    const double pivot = chol.diag(n);
    const double wn = (yn - acc) / pivot;
    w.push_back(wn);
    for (std::size_t j = 0; j < cands.size(); ++j) {
      const double knew = (*kernel)(zn, cands[j]);
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += chol.entry(n, i) * acol[j][i];
      const double an = (knew - dot) / pivot;
      acol[j].push_back(an);
      mean[j] += an * wn;
      var[j] -= an * an;
    }
    z.push_back(zn);
    y.push_back(yn);
  }

  void track(const std::vector<Vector>& cs) {
    cands = cs;
    const std::size_t m = cands.size(), n = z.size();
    acol.assign(m, Vector{});
    mean.assign(m, 0.0);
    var.assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      Vector k(n);
      for (std::size_t i = 0; i < n; ++i) k[i] = (*kernel)(z[i], cands[j]);
      acol[j] = chol.solve_lower(k);  // allocates, like the old engine
      double mu = 0.0, red = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        mu += acol[j][i] * w[i];
        red += acol[j][i] * acol[j][i];
      }
      mean[j] = mu;
      var[j] = (*kernel)(cands[j], cands[j]) - red;
    }
  }

  // Pre-downdate eviction idiom: drop the observation, refactor the full
  // Gram matrix from scratch (O(n^3)), and rebuild every cache (O(n^2 m)).
  void evict_oldest() {
    z.erase(z.begin());
    y.erase(y.begin());
    const std::size_t n = z.size();
    linalg::Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        gram(i, j) = gram(j, i) = (*kernel)(z[i], z[j]);
      }
      gram(i, i) += noise;
    }
    chol = linalg::CholeskyFactor(gram);
    w = chol.solve_lower(y);
    if (!cands.empty()) {
      const std::vector<Vector> cs = cands;
      track(cs);
    }
  }

  gp::Prediction predict(const Vector& zq) const {
    const std::size_t n = z.size();
    Vector k(n);
    for (std::size_t i = 0; i < n; ++i) k[i] = (*kernel)(z[i], zq);
    const Vector v = chol.solve_lower(k);
    double mu = 0.0, red = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mu += v[i] * w[i];
      red += v[i] * v[i];
    }
    return {mu, std::max(0.0, (*kernel)(zq, zq) - red)};
  }
};

std::unique_ptr<gp::Kernel> make_kernel() {
  return std::make_unique<gp::Matern32Kernel>(Vector(7, 1.2), 0.8);
}

struct PhaseResult {
  std::string name;
  double baseline_ms = 0.0;
  double engine_ms = 0.0;
};

struct Config {
  bool smoke = false;
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::string out = "BENCH_gp.json";
  std::size_t n_obs = 200;
  std::size_t grid_levels = 11;  // 11^4 = 14,641 candidates
  int reps = 3;
};

// Times the two sides of a phase rep by rep (A, B, A, B, ...) and returns
// each side's fastest call in ms. Scheduler noise on a shared machine only
// ever inflates a sample, so the minimum is the tightest estimate of the
// true cost — and interleaving matters as much as best-of-N: timing all of
// A's reps then all of B's gives a CPU-steal burst a whole window to land
// on one side and skew the A/B ratio the CI perf gate checks, whereas
// alternating spreads both sides across the same measurement span so a
// clean rep of each is equally likely.
template <typename FnA, typename FnB>
std::pair<double, double> timed_pair(int reps, const FnA& fa, const FnB& fb) {
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    double t0 = now_ms();
    fa();
    best_a = std::min(best_a, now_ms() - t0);
    t0 = now_ms();
    fb();
    best_b = std::min(best_b, now_ms() - t0);
  }
  return {best_a, best_b};
}

std::vector<Vector> draw_inputs(std::size_t n, Rng& rng) {
  std::vector<Vector> zs;
  zs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector z(7);
    for (double& v : z) v = rng.uniform();
    zs.push_back(std::move(z));
  }
  return zs;
}

bool check_close(double a, double b, double tol, const char* what) {
  if (std::abs(a - b) <= tol) return true;
  std::fprintf(stderr, "FAIL: %s differ: engine=%.17g reference=%.17g\n", what,
               a, b);
  return false;
}

// Engine-vs-reference posterior agreement after interleaved adds and a
// re-track (the smoke gate).
bool run_correctness(const Config& cfg) {
  Rng rng(7);
  env::GridSpec spec;
  spec.levels_per_dim = 3;  // 81 candidates — plenty for agreement checks
  env::ControlGrid grid(spec);
  const env::Context ctx{};
  const auto cand_vecs = grid.candidate_features(ctx);
  const auto cand_mat = std::make_shared<const linalg::FeatureMajorPoints>(
      grid.candidate_feature_matrix(ctx));

  gp::GpRegressor engine(make_kernel(), 1e-3);
  RefGp ref(make_kernel(), 1e-3);
  if (cfg.threads > 1) {
    engine.set_thread_pool(std::make_shared<common::ThreadPool>(cfg.threads));
  }

  const auto zs = draw_inputs(40, rng);
  Rng yrng(11);
  std::size_t added = 0;
  auto add_some = [&](std::size_t count) {
    for (std::size_t i = 0; i < count && added < zs.size(); ++i, ++added) {
      const double yv = yrng.normal();
      engine.add(zs[added], yv);
      ref.add(zs[added], yv);
    }
  };

  add_some(10);
  engine.track_candidates(cand_mat);
  ref.track(cand_vecs);
  add_some(15);
  // Context switch: re-track both, then keep folding.
  engine.track_candidates(cand_mat);
  ref.track(cand_vecs);
  add_some(15);

  bool ok = true;
  for (std::size_t j = 0; j < cand_vecs.size(); ++j) {
    ok &= check_close(engine.tracked_mean(j), ref.mean[j], 1e-9,
                      "tracked mean");
    ok &= check_close(engine.tracked_variance(j), std::max(0.0, ref.var[j]),
                      1e-9, "tracked variance");
    if (!ok) return false;
  }
  for (int q = 0; q < 25; ++q) {
    Vector zq(7);
    for (double& v : zq) v = rng.uniform();
    const gp::Prediction pe = engine.predict(zq);
    const gp::Prediction pr = ref.predict(zq);
    ok &= check_close(pe.mean, pr.mean, 1e-9, "predict mean");
    ok &= check_close(pe.variance, pr.variance, 1e-9, "predict variance");
    if (!ok) return false;
  }

  // Downdate path: evict first/middle/last observations from the engine and
  // compare its tracked posterior against a reference conditioned from
  // scratch on exactly the retained observations.
  engine.remove_observation(0);
  engine.remove_observation(engine.num_observations() / 2);
  engine.remove_observation(engine.num_observations() - 1);
  RefGp pruned(make_kernel(), 1e-3);
  for (std::size_t i = 0; i < engine.num_observations(); ++i) {
    pruned.add(engine.inputs()[i], engine.targets()[i]);
  }
  pruned.track(cand_vecs);
  for (std::size_t j = 0; j < cand_vecs.size(); ++j) {
    ok &= check_close(engine.tracked_mean(j), pruned.mean[j], 1e-9,
                      "post-evict tracked mean");
    ok &= check_close(engine.tracked_variance(j),
                      std::max(0.0, pruned.var[j]), 1e-9,
                      "post-evict tracked variance");
    if (!ok) return false;
  }
  return ok;
}

std::vector<PhaseResult> run_phases(const Config& cfg) {
  Rng rng(42);
  env::GridSpec spec;
  spec.levels_per_dim = cfg.grid_levels;
  env::ControlGrid grid(spec);
  const env::Context ctx{};
  const auto cand_vecs = grid.candidate_features(ctx);
  const auto cand_mat = std::make_shared<const linalg::FeatureMajorPoints>(
      grid.candidate_feature_matrix(ctx));
  const std::size_t m = grid.size();

  std::shared_ptr<common::ThreadPool> pool;
  if (cfg.threads > 1) pool = std::make_shared<common::ThreadPool>(cfg.threads);

  const auto zs = draw_inputs(cfg.n_obs, rng);
  Rng yrng(43);
  Vector ys(cfg.n_obs);
  for (double& v : ys) v = yrng.normal();

  // Conditioned engine + reference with tracking active.
  gp::GpRegressor engine(make_kernel(), 1e-3);
  engine.set_thread_pool(pool);
  RefGp ref(make_kernel(), 1e-3);
  for (std::size_t i = 0; i < cfg.n_obs; ++i) {
    engine.add(zs[i], ys[i]);
    ref.add(zs[i], ys[i]);
  }

  std::vector<PhaseResult> out;
  std::fprintf(stderr, "phases: n=%zu m=%zu threads=%zu isa=%s reps=%d\n",
               cfg.n_obs, m, cfg.threads,
               gp::lanes::isa_name(gp::lanes::host_isa()), cfg.reps);

  // -- track: O(m n^2) rebuild on context switch ----------------------------
  {
    PhaseResult p{"track", 0.0, 0.0};
    std::tie(p.baseline_ms, p.engine_ms) =
        timed_pair(cfg.reps, [&] { ref.track(cand_vecs); },
                   [&] { engine.track_candidates(cand_mat); });
    out.push_back(p);
  }

  // -- add: O(m n) per-period fold (tracking active from the phase above).
  //    add() leaves its fold pending; the tracked read applies it inside the
  //    rep that caused it ----------------------------------------------------
  {
    PhaseResult p{"add", 0.0, 0.0};
    const auto extra = draw_inputs(static_cast<std::size_t>(cfg.reps) * 2, rng);
    std::size_t bi = 0, ei = 0;
    std::tie(p.baseline_ms, p.engine_ms) =
        timed_pair(cfg.reps, [&] { ref.add(extra[bi++], 0.1); },
                   [&] {
                     engine.add(extra[ei++], 0.1);
                     g_sink = engine.tracked_mean(0);
                   });
    out.push_back(p);
  }

  // -- evict: drop the oldest observation, as a full budget does every
  //    period. Engine: Givens downdate O(n^2) + cache fold O(n m); baseline:
  //    refactor + full cache rebuild, O(n^3 + n^2 m). remove_observation()
  //    leaves its cache pass pending; the tracked read applies it inside the
  //    rep that caused it ----------------------------------------------------
  {
    PhaseResult p{"evict", 0.0, 0.0};
    std::tie(p.baseline_ms, p.engine_ms) =
        timed_pair(cfg.reps, [&] { ref.evict_oldest(); },
                   [&] {
                     engine.remove_observation(0);
                     g_sink = engine.tracked_mean(0);
                   });
    out.push_back(p);
  }

  // -- predict: O(n^2) cold posterior, batched over queries ------------------
  {
    PhaseResult p{"predict", 0.0, 0.0};
    const std::size_t q = cfg.smoke ? 50 : 500;
    const auto queries = draw_inputs(q, rng);
    std::tie(p.baseline_ms, p.engine_ms) = timed_pair(
        cfg.reps,
        [&] {
          double acc = 0.0;
          for (const Vector& zq : queries) acc += ref.predict(zq).mean;
          g_sink = acc;
        },
        [&] {
          double acc = 0.0;
          for (const Vector& zq : queries) acc += engine.predict(zq).mean;
          g_sink = acc;
        });
    out.push_back(p);
  }

  // -- hyperopt: pre-production LML probes, serial vs pooled -----------------
  {
    PhaseResult p{"hyperopt", 0.0, 0.0};
    const std::size_t hn = cfg.smoke ? 20 : 60;
    const auto hz = draw_inputs(hn, rng);
    Vector hy(hn);
    for (double& v : hy) v = yrng.normal();
    gp::HyperoptOptions opts;
    opts.num_random_starts = cfg.smoke ? 8 : 24;
    opts.refine_rounds = cfg.smoke ? 1 : 2;
    gp::HyperoptOptions pooled_opts = opts;
    pooled_opts.pool = pool;
    std::tie(p.baseline_ms, p.engine_ms) = timed_pair(
        cfg.reps,
        [&] {
          Rng hrng(99);
          gp::fit_hyperparameters(hz, hy, hrng, opts);
        },
        [&] {
          Rng hrng(99);
          gp::fit_hyperparameters(hz, hy, hrng, pooled_opts);
        });
    out.push_back(p);
  }

  // -- full_period: 3 surrogates x (scan all m posteriors + fold one add) ----
  {
    PhaseResult p{"full_period", 0.0, 0.0};

    std::vector<RefGp> base_gps;
    std::vector<gp::GpRegressor> eng_gps;
    for (int s = 0; s < 3; ++s) {
      base_gps.emplace_back(make_kernel(), 1e-3);
      eng_gps.emplace_back(make_kernel(), 1e-3);
      for (std::size_t i = 0; i < cfg.n_obs; ++i) {
        base_gps.back().add(zs[i], ys[i]);
        eng_gps.back().add(zs[i], ys[i]);
      }
      base_gps.back().track(cand_vecs);
      eng_gps.back().set_thread_pool(pool);
      eng_gps.back().track_candidates(cand_mat);
    }
    const auto extra = draw_inputs(static_cast<std::size_t>(cfg.reps), rng);

    std::size_t bi = 0;
    std::size_t ei = 0;
    std::tie(p.baseline_ms, p.engine_ms) = timed_pair(
        cfg.reps,
        [&] {
          double acc = 0.0;
          for (RefGp& g : base_gps) {
            for (std::size_t j = 0; j < m; ++j) acc += g.mean[j] + g.var[j];
            g.add(extra[bi], 0.1);
          }
          ++bi;
          g_sink = acc;
        },
        [&] {
          double acc = 0.0;
          auto period = [&](gp::GpRegressor& g) {
            double local = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
              const gp::Prediction pr = g.tracked_prediction(j);
              local += pr.mean + pr.variance;
            }
            g.add(extra[ei], 0.1);
            // Pay this period's fold here, not in the next rep's scan.
            return local + g.tracked_mean(0);
          };
          if (pool) {
            // The three surrogates update concurrently, as EdgeBol does.
            double a0 = 0.0, a1 = 0.0, a2 = 0.0;
            pool->run_tasks({[&] { a0 = period(eng_gps[0]); },
                             [&] { a1 = period(eng_gps[1]); },
                             [&] { a2 = period(eng_gps[2]); }});
            acc = a0 + a1 + a2;
          } else {
            for (auto& g : eng_gps) acc += period(g);
          }
          ++ei;
          g_sink = acc;
        });
    out.push_back(p);
  }

  return out;
}

// ---------------------------------------------------------------------------
// decide: the sub-millisecond decision gate. Three surrogates conditioned on
// exactly 200 observations track the full 11^4 grid; every iteration runs
// the engine decision (FusedAcquisition's one fused sweep) and the legacy
// full rescan (materialize 3 x m posteriors, compute_safe_set, fallback
// loop, lcb_argmin), asserts the two decisions are identical, then churns
// the observation budget (one add + one evict per surrogate). Re-tracks
// every 37th iteration and threshold moves every 53rd vary the posteriors
// and the safe set the decisions are checked on. The timed region is the
// decision only — context-switch re-tracking is the `track` phase's cost
// and happens between iterations.
// ---------------------------------------------------------------------------
struct DecideStats {
  double legacy_p50_ms = 0.0;
  double engine_p50_ms = 0.0;
  double engine_p99_ms = 0.0;
  bool ok = false;
};

// Nearest-rank percentile (q in (0, 1]); consumes a copy.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  return v[rank - 1];
}

DecideStats run_decide(std::size_t threads) {
  // Nearest-rank p99 needs enough samples that it is not simply the max:
  // 400 samples put p99 at the 5th largest, so up to four stray CPU-steal
  // spikes on a shared box cannot fail the ceiling gate on their own
  // (check.sh additionally retries). A decision is sub-millisecond, so the
  // sample count is not worth shrinking in smoke mode: 400 iterations of
  // engine + legacy at both thread counts cost well under a second.
  const int iters = 400;
  const std::size_t n_obs = 200;  // the gate's observation budget
  const double beta = 2.5;

  env::GridSpec spec;
  spec.levels_per_dim = 11;  // the gate always runs the full grid
  env::ControlGrid grid(spec);
  const env::Context ctx{};
  const auto cand_mat = std::make_shared<const linalg::FeatureMajorPoints>(
      grid.candidate_feature_matrix(ctx));
  const std::size_t m = grid.size();

  std::shared_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_shared<common::ThreadPool>(threads);

  Rng rng(171);
  Rng yrng(172);
  gp::GpRegressor delay_gp(make_kernel(), 1e-3);
  gp::GpRegressor map_gp(make_kernel(), 1e-3);
  gp::GpRegressor cost_gp(make_kernel(), 1e-3);
  const std::array<gp::GpRegressor*, 3> gps{&delay_gp, &map_gp, &cost_gp};
  const auto zs = draw_inputs(n_obs, rng);
  for (gp::GpRegressor* g : gps) {
    g->set_thread_pool(pool);
    for (const Vector& z : zs) g->add(z, yrng.normal());
    g->track_candidates(cand_mat);
  }

  // Thresholds from the empirical bound quantiles so the safe set is mixed
  // (roughly half the grid passes each constraint).
  std::vector<double> ucb(m), lcb(m);
  for (std::size_t j = 0; j < m; ++j) {
    const gp::Prediction d = delay_gp.tracked_prediction(j);
    const gp::Prediction q = map_gp.tracked_prediction(j);
    ucb[j] = d.mean + beta * d.stddev();
    lcb[j] = q.mean - beta * q.stddev();
  }
  double d_max = percentile(ucb, 0.55);
  double rho_min = percentile(lcb, 0.45);

  const std::vector<std::size_t> s0{0, m / 2};
  core::FusedAcquisition acq;
  acq.configure(m, s0);
  std::array<core::BoundSpec, 2> specs{};

  const auto engine_decide = [&] {
    specs[0] = core::BoundSpec{&delay_gp, /*upper=*/true, d_max, 0.0};
    specs[1] = core::BoundSpec{&map_gp, /*upper=*/false, rho_min, 0.0};
    return acq.decide(core::AcquisitionKind::kSafeLcb, specs, cost_gp, beta);
  };
  const auto legacy_decide = [&] {
    std::vector<gp::Prediction> delay_post(m), map_post(m), cost_post(m);
    for (std::size_t j = 0; j < m; ++j) {
      delay_post[j] = delay_gp.tracked_prediction(j);
      map_post[j] = map_gp.tracked_prediction(j);
      cost_post[j] = cost_gp.tracked_prediction(j);
    }
    const std::vector<std::size_t> safe =
        core::compute_safe_set(delay_post, map_post, d_max, rho_min, beta, s0);
    bool fell_back = true;
    for (std::size_t i : safe) {
      const bool in_s0 = std::find(s0.begin(), s0.end(), i) != s0.end();
      const gp::Prediction& d = delay_post[i];
      const gp::Prediction& q = map_post[i];
      const bool qualified = d.mean + beta * d.stddev() <= d_max &&
                             q.mean - beta * q.stddev() >= rho_min;
      if (qualified || !in_s0) {
        fell_back = false;
        break;
      }
    }
    core::FusedDecision r;
    r.index = core::lcb_argmin(cost_post, safe, beta);
    r.safe_set_size = safe.size();
    r.fell_back_to_s0 = fell_back;
    return r;
  };

  DecideStats stats;

  // Untimed warmup: the first rounds first-touch the decide's masks, not a
  // steady-state decision cost.
  for (int w = 0; w < 2; ++w) {
    const core::FusedDecision eng = engine_decide();
    const core::FusedDecision leg = legacy_decide();
    if (eng.index != leg.index || eng.safe_set_size != leg.safe_set_size ||
        eng.fell_back_to_s0 != leg.fell_back_to_s0) {
      std::fprintf(stderr, "FAIL: decide mismatch in warmup (threads=%zu)\n",
                   threads);
      return stats;
    }
  }

  const auto extra = draw_inputs(static_cast<std::size_t>(iters), rng);
  std::vector<double> eng_ms, leg_ms;
  eng_ms.reserve(static_cast<std::size_t>(iters));
  leg_ms.reserve(static_cast<std::size_t>(iters));
  for (int it = 0; it < iters; ++it) {
    if (it % 37 == 17) {
      for (gp::GpRegressor* g : gps) g->track_candidates(cand_mat);
    }
    if (it % 53 == 29) {
      d_max += ((it & 2) != 0 ? 1.0 : -1.0) * 5e-3;
      rho_min += ((it & 4) != 0 ? 1.0 : -1.0) * 5e-3;
    }

    double t0 = now_ms();
    const core::FusedDecision eng = engine_decide();
    eng_ms.push_back(now_ms() - t0);
    t0 = now_ms();
    const core::FusedDecision leg = legacy_decide();
    leg_ms.push_back(now_ms() - t0);
    g_sink = static_cast<double>(eng.index);

    if (eng.index != leg.index || eng.safe_set_size != leg.safe_set_size ||
        eng.fell_back_to_s0 != leg.fell_back_to_s0) {
      std::fprintf(stderr,
                   "FAIL: decide mismatch at iter %d (threads=%zu): engine "
                   "{%zu, %zu, %d} legacy {%zu, %zu, %d}\n",
                   it, threads, eng.index, eng.safe_set_size,
                   static_cast<int>(eng.fell_back_to_s0), leg.index,
                   leg.safe_set_size, static_cast<int>(leg.fell_back_to_s0));
      return stats;
    }

    // Budget churn: fold one observation in and evict the oldest, keeping
    // the budget pinned at 200 — the steady state the gate models. The
    // pending cache pass runs here, untimed: the gate times the decision
    // once the posteriors are tracked.
    for (gp::GpRegressor* g : gps) {
      g->add(extra[static_cast<std::size_t>(it)], 0.05 * yrng.normal());
      g->remove_observation(0);
      g->apply_pending_pass();
    }
  }

  stats.legacy_p50_ms = percentile(leg_ms, 0.50);
  stats.engine_p50_ms = percentile(eng_ms, 0.50);
  stats.engine_p99_ms = percentile(eng_ms, 0.99);
  stats.ok = true;
  std::fprintf(stderr,
               "decide (t%zu): engine p50 %.3f ms p99 %.3f ms   legacy p50 "
               "%.3f ms\n",
               threads, stats.engine_p50_ms, stats.engine_p99_ms,
               stats.legacy_p50_ms);
  return stats;
}

void write_json(const Config& cfg, const std::vector<PhaseResult>& phases,
                std::size_t m,
                const std::vector<std::pair<std::string, double>>& metrics) {
  std::ofstream os(cfg.out);
  os.precision(6);
  os << "{\n"
     << "  \"n_obs\": " << cfg.n_obs << ",\n"
     << "  \"n_candidates\": " << m << ",\n"
     << "  \"dims\": 7,\n"
     << "  \"threads\": " << cfg.threads << ",\n"
     << "  \"isa\": \"" << gp::lanes::isa_name(gp::lanes::host_isa())
     << "\",\n"
     << "  \"smoke\": " << (cfg.smoke ? "true" : "false") << ",\n"
     << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    const double speedup =
        p.engine_ms > 0.0 ? p.baseline_ms / p.engine_ms : 0.0;
    os << "    {\"name\": \"" << p.name << "\", \"baseline_ms\": "
       << std::fixed << p.baseline_ms << ", \"engine_ms\": " << p.engine_ms
       << ", \"speedup\": " << speedup << "}"
       << (i + 1 < phases.size() ? "," : "") << "\n";
    os.unsetf(std::ios::fixed);
  }
  os << "  ],\n"
     << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << "    \"" << metrics[i].first << "\": " << std::fixed
       << metrics[i].second << (i + 1 < metrics.size() ? "," : "") << "\n";
    os.unsetf(std::ios::fixed);
  }
  os << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      cfg.threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.smoke) {
    // Large enough that the engine's batching margin clears release-mode
    // scheduler jitter (the perf gate in scripts/check.sh fails below
    // 0.95x; the margin grows with the candidate count), small enough to
    // stay a few seconds.
    cfg.n_obs = 160;
    cfg.grid_levels = 9;  // 6,561 candidates
    // Best-of-9: baseline and engine are timed in separate windows, so on a
    // shared 1-vCPU box a steal burst can inflate every sample of one side.
    // More reps per side makes both minima far more likely to catch a clean
    // window each (check.sh additionally retries the whole gate).
    cfg.reps = 9;
  }

  if (!run_correctness(cfg)) {
    std::fprintf(stderr, "bench_micro_gp: engine/reference mismatch\n");
    return 1;
  }
  std::fprintf(stderr, "correctness: engine matches reference to 1e-9\n");

  std::vector<PhaseResult> phases = run_phases(cfg);

  const DecideStats t1 = run_decide(1);
  const DecideStats t8 = run_decide(8);
  if (!t1.ok || !t8.ok) {
    std::fprintf(stderr, "bench_micro_gp: decide engine/legacy mismatch\n");
    return 1;
  }
  phases.push_back(PhaseResult{"decide", t1.legacy_p50_ms, t1.engine_p50_ms});
  const std::vector<std::pair<std::string, double>> metrics{
      {"decide_p50_ms_t1", t1.engine_p50_ms},
      {"decide_p99_ms_t1", t1.engine_p99_ms},
      {"decide_p50_ms_t8", t8.engine_p50_ms},
      {"decide_p99_ms_t8", t8.engine_p99_ms},
  };

  env::GridSpec spec;
  spec.levels_per_dim = cfg.grid_levels;
  const std::size_t m = spec.levels_per_dim * spec.levels_per_dim *
                        spec.levels_per_dim * spec.levels_per_dim;
  write_json(cfg, phases, m, metrics);

  for (const PhaseResult& p : phases) {
    std::fprintf(stderr, "%-12s baseline %10.3f ms   engine %10.3f ms   %.2fx\n",
                 p.name.c_str(), p.baseline_ms, p.engine_ms,
                 p.engine_ms > 0.0 ? p.baseline_ms / p.engine_ms : 0.0);
  }
  std::fprintf(stderr, "wrote %s\n", cfg.out.c_str());
  return 0;
}
