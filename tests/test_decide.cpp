// Decision-path identity: the fused decide (FusedAcquisition) must make
// bit-identical decisions to the reference full rescan — across event
// sequences (adds, evictions, re-tracks, threshold and beta changes,
// all-unsafe regimes), all three acquisition kinds, and the pool sizes of
// the surrogates that feed it — and so must the one safe-BO engine built on
// it (GenericSafeBol), checked period by period against shadow surrogates.
// The grids span several of the GP's 512-column blocks, so a pool really
// splits the cache passes and rebuilds behind each decision.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/acquisition.hpp"
#include "core/edgebol.hpp"
#include "core/generic_bol.hpp"
#include "core/safe_set.hpp"
#include "env/control_grid.hpp"
#include "env/scenarios.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"

namespace edgebol::core {
namespace {

using edgebol::Rng;
using linalg::Vector;

std::unique_ptr<gp::Kernel> make_kernel() {
  return std::make_unique<gp::Matern32Kernel>(Vector(7, 1.1), 0.9);
}

Vector draw_input(Rng& rng) {
  Vector z(7);
  for (double& v : z) v = rng.uniform();
  return z;
}

// The reference full-rescan decision, the oracle for the fused decide:
// materialize every tracked posterior (constraint means shifted by their
// prior-mean offsets), compute_safe_set, the fallback loop, then the
// kind-specific acquisition.
FusedDecision reference_decide(AcquisitionKind kind,
                               const gp::GpRegressor& delay_gp,
                               const gp::GpRegressor& map_gp,
                               const gp::GpRegressor& cost_gp, double d_max,
                               double rho_min, double beta,
                               const std::vector<std::size_t>& s0,
                               const env::ControlGrid& grid,
                               double delay_offset = 0.0,
                               double map_offset = 0.0) {
  const std::size_t m = grid.size();
  std::vector<gp::Prediction> delay_post(m), map_post(m), cost_post(m);
  for (std::size_t j = 0; j < m; ++j) {
    delay_post[j] = delay_gp.tracked_prediction(j);
    delay_post[j].mean += delay_offset;
    map_post[j] = map_gp.tracked_prediction(j);
    map_post[j].mean += map_offset;
    cost_post[j] = cost_gp.tracked_prediction(j);
  }
  const std::vector<std::size_t> safe =
      compute_safe_set(delay_post, map_post, d_max, rho_min, beta, s0);
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
  FusedDecision r;
  if (kind == AcquisitionKind::kGlobalLcb) {
    std::vector<std::size_t> all(m);
    for (std::size_t j = 0; j < m; ++j) all[j] = j;
    r.index = lcb_argmin(cost_post, all, beta);
  } else if (kind == AcquisitionKind::kSafeOpt) {
    SafeOptInputs in;
    in.cost = &cost_post;
    in.delay = &delay_post;
    in.map = &map_post;
    in.safe_set = &safe;
    in.beta = beta;
    r.index = safeopt_select(in, grid.adjacency_offsets(), grid.adjacency());
  } else {
    r.index = lcb_argmin(cost_post, safe, beta);
  }
  r.safe_set_size = safe.size();
  r.fell_back_to_s0 = fell_back;
  return r;
}

struct DecisionRecord {
  std::size_t index;
  std::size_t safe_set_size;
  bool fell_back;

  bool operator==(const DecisionRecord&) const = default;
};

// Drives one pool size through `events` steps of an event schedule (adds,
// evictions, re-tracks, threshold moves, beta toggles, an all-unsafe window)
// on a levels^4 grid, checking fused == reference for every kind at every
// step, and returns the decision log for the cross-pool comparison.
std::vector<DecisionRecord> run_battery(std::size_t threads,
                                        std::size_t levels, int events) {
  env::GridSpec spec;
  spec.levels_per_dim = levels;
  env::ControlGrid grid(spec);
  const env::Context ctx{};
  const auto cand_mat = std::make_shared<const linalg::FeatureMajorPoints>(
      grid.candidate_feature_matrix(ctx));
  const std::size_t m = grid.size();

  std::shared_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_shared<common::ThreadPool>(threads);

  gp::GpRegressor delay_gp(make_kernel(), 1e-3);
  gp::GpRegressor map_gp(make_kernel(), 1e-3);
  gp::GpRegressor cost_gp(make_kernel(), 1e-3);
  const std::array<gp::GpRegressor*, 3> gps{&delay_gp, &map_gp, &cost_gp};
  Rng rng(31);
  for (gp::GpRegressor* g : gps) {
    g->set_thread_pool(pool);
    for (int i = 0; i < 25; ++i) g->add(draw_input(rng), rng.normal());
    g->track_candidates(cand_mat);
  }

  // Thresholds near the posterior bulk so the safe set is mixed.
  std::vector<double> ucb(m);
  for (std::size_t j = 0; j < m; ++j) {
    const gp::Prediction d = delay_gp.tracked_prediction(j);
    ucb[j] = d.mean + 2.5 * d.stddev();
  }
  std::nth_element(ucb.begin(), ucb.begin() + m / 2, ucb.end());
  double d_max = ucb[m / 2];
  double rho_min = 0.0;
  double beta = 2.5;

  const std::vector<std::size_t> s0{0, m / 3, m - 1};
  FusedAcquisition acq;
  acq.configure(m, s0);
  std::array<BoundSpec, 2> specs{};

  const std::array<AcquisitionKind, 3> kinds{
      AcquisitionKind::kSafeLcb, AcquisitionKind::kSafeOpt,
      AcquisitionKind::kGlobalLcb};

  std::vector<DecisionRecord> log;
  const double d_max_home = d_max;
  const int unsafe_from = events / 2;
  const int unsafe_to = unsafe_from + events / 8;
  for (int e = 0; e < events; ++e) {
    for (gp::GpRegressor* g : gps) g->add(draw_input(rng), rng.normal());
    if (e % 4 == 3) {
      for (gp::GpRegressor* g : gps) g->remove_observation(0);
    }
    if (e % 13 == 8) {
      for (gp::GpRegressor* g : gps) g->track_candidates(cand_mat);
    }
    if (e % 9 == 5) d_max += (e % 2 == 0 ? 1.0 : -1.0) * 0.02;
    if (e % 17 == 11) beta = beta == 2.5 ? 1.0 : 2.5;
    if (e == unsafe_from) d_max = -1e6;  // nothing qualifies: S0 fallback
    if (e == unsafe_to) d_max = d_max_home;

    for (const AcquisitionKind kind : kinds) {
      specs[0] = BoundSpec{&delay_gp, /*upper=*/true, d_max, 0.0};
      specs[1] = BoundSpec{&map_gp, /*upper=*/false, rho_min, 0.0};
      const FusedDecision got =
          acq.decide(kind, specs, cost_gp, beta, grid.adjacency_offsets(),
                     grid.adjacency());
      const FusedDecision want =
          reference_decide(kind, delay_gp, map_gp, cost_gp, d_max, rho_min,
                           beta, s0, grid);
      EXPECT_EQ(got.index, want.index)
          << "e=" << e << " kind=" << static_cast<int>(kind)
          << " threads=" << threads;
      EXPECT_EQ(got.safe_set_size, want.safe_set_size) << "e=" << e;
      EXPECT_EQ(got.fell_back_to_s0, want.fell_back_to_s0) << "e=" << e;
      log.push_back({got.index, got.safe_set_size, got.fell_back_to_s0});
    }
  }
  // The schedule must actually visit both regimes.
  EXPECT_TRUE(std::any_of(log.begin(), log.end(),
                          [](const DecisionRecord& r) { return r.fell_back; }));
  EXPECT_TRUE(std::any_of(log.begin(), log.end(), [](const DecisionRecord& r) {
    return !r.fell_back;
  }));
  return log;
}

TEST(Decide, FusedMatchesLegacyAcrossEventsAndPools) {
  // 6^4 = 1,296 candidates: three column blocks.
  const std::vector<DecisionRecord> serial = run_battery(1, 6, 40);
  const std::vector<DecisionRecord> two = run_battery(2, 6, 40);
  const std::vector<DecisionRecord> eight = run_battery(8, 6, 40);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST(Decide, FusedMatchesLegacyOnTheFullGrid) {
  // The paper's 11^4 = 14,641 candidates (29 column blocks), a shorter
  // schedule that still evicts, re-tracks, moves the threshold, toggles
  // beta and visits the all-unsafe window.
  run_battery(8, 11, 24);
}

// ---------------------------------------------------------------------------
// The engine against the reference: GenericSafeBol driven beside shadow
// surrogates that get the same transformed rows and the same evictions.
// Every period the engine's decision must equal the reference scan over the
// shadows.
// ---------------------------------------------------------------------------

std::vector<DecisionRecord> run_engine(AcquisitionKind kind,
                                       std::size_t threads) {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  const env::ControlGrid grid(spec);

  // Every transform the engine supports: a scaled objective with a nonzero
  // prior mean, a clipped log metric with a pessimistic prior mean, and a
  // plain metric.
  MetricSpec cost{"cost", default_cost_hyperparams()};
  cost.scale = 200.0;
  cost.prior_mean = 0.5;
  MetricSpec delay{"delay", default_delay_hyperparams()};
  delay.log_transform = true;
  delay.clip = 3.0;
  delay.prior_mean = 0.4;
  MetricSpec map{"map", default_map_hyperparams()};
  const std::array<MetricSpec, 3> specs{cost, delay, map};
  const std::vector<std::size_t> s0{grid.max_performance_index()};
  const SafeBolOptions opts{.beta_sqrt = 2.5,
                            .acquisition = kind,
                            .gp_budget = 24,
                            .gp_eviction = gp::EvictionPolicy::kMinLeverage,
                            .num_threads = threads};
  GenericSafeBol engine(control_features(grid), cost, {delay, map},
                        {{0, BoundKind::kUpper, 0.4},
                         {1, BoundKind::kLower, 0.5}},
                        s0, opts);

  std::vector<gp::GpRegressor> shadow;
  for (const MetricSpec& m : specs)
    shadow.emplace_back(m.hp.make_kernel(), m.hp.noise_variance);

  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context ctx_a{2.0, 12.0, 3.0};
  const env::Context ctx_b{6.0, 9.0, 8.0};
  double d_max = 0.4;
  std::optional<linalg::Vector> tracked;
  std::vector<DecisionRecord> log;
  for (int t = 0; t < 60; ++t) {
    if (t == 30) d_max = 0.3;   // runtime tightening
    if (t == 45) d_max = 10.0;  // above the clip: acts as the clip
    engine.set_threshold(0, d_max);
    const env::Context& c = (t / 7) % 2 == 0 ? ctx_a : ctx_b;
    const linalg::Vector f = c.to_features();
    if (tracked != f) {  // the two contexts are far apart: rebuild on change
      const auto cands = std::make_shared<const linalg::FeatureMajorPoints>(
          grid.candidate_feature_matrix(c));
      for (gp::GpRegressor& g : shadow) g.track_candidates(cands);
      tracked = f;
    }
    const FusedDecision got =
        engine.select(f, grid.adjacency_offsets(), grid.adjacency());
    const FusedDecision want = reference_decide(
        kind, shadow[1], shadow[2], shadow[0], delay.transform(d_max), 0.5,
        opts.beta_sqrt, s0, grid, delay.prior_mean, map.prior_mean);
    EXPECT_EQ(got.index, want.index) << "t=" << t << " threads=" << threads;
    EXPECT_EQ(got.safe_set_size, want.safe_set_size) << "t=" << t;
    EXPECT_EQ(got.fell_back_to_s0, want.fell_back_to_s0) << "t=" << t;
    log.push_back({got.index, got.safe_set_size, got.fell_back_to_s0});

    const env::ControlPolicy& p = grid.policy(got.index);
    const env::Measurement m = tb.step(p);
    const std::array<double, 3> raw{m.server_power_w + 8.0 * m.bs_power_w,
                                    m.delay_s, m.map};
    engine.update(f, got.index, raw[0], {raw[1], raw[2]});
    const linalg::Vector z = env::joint_features(c, p);
    for (std::size_t k = 0; k < shadow.size(); ++k)
      shadow[k].add(z, specs[k].transform(raw[k]) - specs[k].prior_mean);
    while (shadow[0].num_observations() > opts.gp_budget) {
      const std::size_t victim = shadow[0].eviction_candidate(opts.gp_eviction);
      for (gp::GpRegressor& g : shadow) g.remove_observation(victim);
    }
  }
  EXPECT_EQ(engine.num_observations(), opts.gp_budget);
  return log;
}

TEST(Decide, EngineMatchesReferenceScanEveryPeriod) {
  for (const AcquisitionKind kind :
       {AcquisitionKind::kSafeLcb, AcquisitionKind::kSafeOpt,
        AcquisitionKind::kGlobalLcb}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const std::vector<DecisionRecord> serial = run_engine(kind, 1);
    EXPECT_EQ(serial, run_engine(kind, 2));
    if (kind == AcquisitionKind::kGlobalLcb) continue;
    // The safe kinds visit both regimes: S0 fallback and qualified sets.
    const auto fell_back = [](const DecisionRecord& r) { return r.fell_back; };
    EXPECT_TRUE(std::any_of(serial.begin(), serial.end(), fell_back));
    EXPECT_FALSE(std::all_of(serial.begin(), serial.end(), fell_back));
  }
}

}  // namespace
}  // namespace edgebol::core
