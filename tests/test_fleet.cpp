// Fleet layer: event-driven FleetSim, batched FleetEngine dispatch, and
// cross-cell warm-start transfer.
//
// The load-bearing contracts:
//   * per-cell RNG streams derive from (fleet seed, cell id), so a cell's
//     draws and noise are invariant to fleet size, join time, and build
//     order;
//   * batched dispatch, split (update_batch + decide_batch) or fused
//     (serve_batch), is bit-identical to the serial per-cell loop for any
//     thread/shard count (cells share no mutable state);
//   * a warm-started joiner (blended hyperparameters + imported
//     pseudo-observations from the K nearest donors) reaches the cold
//     joiner's converged cost in at most HALF the periods, without
//     violating the delay constraint more often.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/fleet_engine.hpp"
#include "env/fleet_sim.hpp"

namespace {

using namespace edgebol;

env::FleetScenario small_scenario(std::size_t cells, std::uint64_t seed) {
  env::FleetScenario sc;
  sc.num_cells = cells;
  sc.seed = seed;
  return sc;
}

env::ControlGrid tiny_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 4;  // 256 candidates: fast under sanitizers
  return env::ControlGrid{spec};
}

core::EdgeBolConfig tiny_cell() {
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.5, 0.4};
  cfg.gp_budget = 32;
  return cfg;
}

// Measurement streams of one cell under a fixed policy replay.
std::vector<env::Measurement> replay(env::FleetSim& sim, std::size_t id,
                                     const env::ControlPolicy& policy,
                                     int periods) {
  std::vector<env::Measurement> out;
  for (int t = 0; t < periods; ++t) out.push_back(sim.testbed(id).step(policy));
  return out;
}

void expect_same_measurement(const env::Measurement& a,
                             const env::Measurement& b) {
  EXPECT_EQ(a.delay_s, b.delay_s);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.server_power_w, b.server_power_w);
  EXPECT_EQ(a.bs_power_w, b.bs_power_w);
}

TEST(FleetSim, CellDrawsInvariantToFleetSize) {
  env::FleetSim small(small_scenario(4, 99));
  env::FleetSim large(small_scenario(12, 99));
  const env::ControlPolicy p = tiny_grid().policy(100);
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(small.info(id).base_snr_db, large.info(id).base_snr_db);
    EXPECT_EQ(small.info(id).n_users, large.info(id).n_users);
    EXPECT_EQ(small.info(id).period_s, large.info(id).period_s);
  }
  const auto ms = replay(small, 2, p, 5);
  const auto ml = replay(large, 2, p, 5);
  for (int t = 0; t < 5; ++t) expect_same_measurement(ms[t], ml[t]);
}

TEST(FleetSim, MidRunJoinMatchesConstructionDraw) {
  env::FleetSim all(small_scenario(5, 7));
  env::FleetSim grown(small_scenario(4, 7));
  // Advance the grown fleet a while (and step its cells) before joining:
  // none of that may leak into cell 4's draws.
  const env::ControlPolicy p = tiny_grid().policy(200);
  std::vector<env::ControlPolicy> pol;
  std::vector<env::Measurement> meas;
  for (int round = 0; round < 6; ++round) {
    const auto due = grown.next_due();
    pol.assign(due.size(), p);
    meas.resize(due.size());
    grown.step_due(pol, meas);
  }
  const std::size_t id = grown.add_cell();
  ASSERT_EQ(id, 4u);
  EXPECT_EQ(all.info(4).base_snr_db, grown.info(4).base_snr_db);
  EXPECT_EQ(all.info(4).n_users, grown.info(4).n_users);
  EXPECT_EQ(all.info(4).period_s, grown.info(4).period_s);
  const auto ma = replay(all, 4, p, 5);
  const auto mg = replay(grown, 4, p, 5);
  for (int t = 0; t < 5; ++t) expect_same_measurement(ma[t], mg[t]);
}

TEST(FleetSim, BatchesAreAscendingDeterministicAndQuantized) {
  env::FleetSim a(small_scenario(16, 3));
  env::FleetSim b(small_scenario(16, 3));
  for (std::size_t id = 0; id < 16; ++id) {
    const double periods = a.info(id).period_s / a.scenario().tick_s;
    EXPECT_NEAR(periods, std::round(periods), 1e-9);  // tick-aligned
    EXPECT_GE(a.info(id).period_s, a.scenario().tick_s);
  }
  for (int round = 0; round < 60; ++round) {
    const auto da = a.next_due();
    const auto db = b.next_due();
    ASSERT_EQ(da.size(), db.size());
    ASSERT_GE(da.size(), 1u);
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i], db[i]);
      if (i > 0) {
        EXPECT_LT(da[i - 1], da[i]);  // ascending, unique
      }
    }
    EXPECT_EQ(a.now_s(), b.now_s());
  }
}

TEST(FleetSim, RejectsBadScenarios) {
  auto sc = small_scenario(2, 1);
  sc.tick_s = 0.0;
  EXPECT_THROW(env::FleetSim{sc}, std::invalid_argument);
  sc = small_scenario(2, 1);
  sc.period_jitter = 1.0;
  EXPECT_THROW(env::FleetSim{sc}, std::invalid_argument);
  sc = small_scenario(2, 1);
  sc.users_min = 0;
  EXPECT_THROW(env::FleetSim{sc}, std::invalid_argument);
  sc = small_scenario(2, 1);
  sc.snr_hi_db = sc.snr_lo_db - 1.0;
  EXPECT_THROW(env::FleetSim{sc}, std::invalid_argument);
}

// drive()'s fleet. The coarse tick snaps the jittered periods to 0.75,
// 1.0 or 1.25 s, so most batches hold several cells and the pooled
// dispatches really split them (at the default 0.01 s tick only the first
// batch holds more than one cell).
env::FleetScenario drive_scenario(std::size_t cells) {
  env::FleetScenario sc = small_scenario(cells, 41);
  sc.tick_s = 0.25;
  return sc;
}

// How drive() runs a period through the engine: decide_batch then, after
// the step, update_batch; or serve_batch, which conditions each cell on its
// previous period's feedback and decides it in one pass.
enum class Dispatch { kBatches, kServe };

// Run `periods` decisions per cell through one engine, returning every
// chosen policy index in batch order. In kServe mode it also checks
// serve_batch's callback contract: on_decided(i) fires exactly once per
// index, after out[i] is written, and on a serial engine before cell i+1's
// update (the streaming property).
std::vector<std::size_t> drive(std::size_t cells, std::size_t threads,
                               std::size_t periods,
                               Dispatch mode = Dispatch::kBatches) {
  env::FleetSim sim(drive_scenario(cells));
  core::FleetEngineConfig ec;
  ec.num_threads = threads;
  ec.cell = tiny_cell();
  core::FleetEngine engine(tiny_grid(), ec);
  for (std::size_t i = 0; i < cells; ++i) engine.add_cell();

  constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> chosen;
  std::vector<env::Context> ctx;
  std::vector<core::Decision> dec;
  std::vector<env::ControlPolicy> pol;
  std::vector<env::Measurement> meas;
  // kServe: each cell's feedback for its next period, and the batch's.
  std::vector<core::CellFeedback> pending(cells);
  std::vector<core::CellFeedback> fb;
  // Per batch index, written only by that index's callback.
  std::vector<int> fired, written;
  std::vector<std::size_t> obs_before, obs_self, obs_next;
  std::size_t streamed = 0;  // serial callbacks that ran before a real update
  const bool serial = threads == 1;
  std::size_t decisions = 0;
  while (decisions < cells * periods) {
    const auto due = sim.next_due();
    const std::size_t n = due.size();
    ctx.resize(n);
    dec.resize(n);
    pol.resize(n);
    meas.resize(n);
    sim.due_contexts(ctx);
    if (mode == Dispatch::kServe) {
      fb.resize(n);
      obs_before.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        fb[i] = pending[due[i]];
        obs_before[i] = engine.cell(due[i]).num_observations();
        dec[i].policy_index = kUnset;
      }
      fired.assign(n, 0);
      written.assign(n, 0);
      obs_self.assign(n, 0);
      obs_next.assign(n, 0);
      engine.serve_batch(due, ctx, fb, dec, [&](std::size_t i) {
        ++fired[i];
        written[i] = dec[i].policy_index != kUnset;
        if (!serial) return;
        obs_self[i] = engine.cell(due[i]).num_observations();
        if (i + 1 < n) obs_next[i] = engine.cell(due[i + 1]).num_observations();
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(fired[i], 1) << "index " << i;
        EXPECT_EQ(written[i], 1) << "index " << i;
        if (!serial) continue;
        // Cell i was conditioned before its callback ...
        EXPECT_EQ(obs_self[i], engine.cell(due[i]).num_observations());
        if (i + 1 == n) continue;
        // ... and cell i+1 only after it.
        EXPECT_EQ(obs_next[i], obs_before[i + 1]);
        if (engine.cell(due[i + 1]).num_observations() > obs_before[i + 1])
          ++streamed;
      }
    } else {
      engine.decide_batch(due, ctx, dec);
    }
    for (std::size_t i = 0; i < n; ++i) {
      pol[i] = dec[i].policy;
      chosen.push_back(dec[i].policy_index);
    }
    sim.step_due(pol, meas, engine.pool());
    if (mode == Dispatch::kServe) {
      for (std::size_t i = 0; i < n; ++i)
        pending[due[i]] = {true, ctx[i], dec[i].policy_index, meas[i]};
    } else {
      engine.update_batch(due, ctx, dec, meas);
    }
    decisions += n;
  }
  // The streaming checks above are vacuous unless some cell i+1 really
  // was conditioned in its batch.
  if (mode == Dispatch::kServe && serial) {
    EXPECT_GT(streamed, 0u);
  }
  return chosen;
}

// The same loop hand-rolled over independent EdgeBol agents — the engine's
// ground truth.
std::vector<std::size_t> drive_hand_rolled(std::size_t cells,
                                           std::size_t periods) {
  env::FleetSim sim(drive_scenario(cells));
  std::vector<core::EdgeBol> agents;
  for (std::size_t i = 0; i < cells; ++i)
    agents.emplace_back(tiny_grid(), tiny_cell());

  std::vector<std::size_t> chosen;
  std::vector<env::Context> ctx;
  std::size_t decisions = 0;
  while (decisions < cells * periods) {
    const auto due = sim.next_due();
    ctx.resize(due.size());
    sim.due_contexts(ctx);
    std::vector<env::ControlPolicy> pol(due.size());
    std::vector<env::Measurement> meas(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
      const core::Decision d = agents[due[i]].select(ctx[i]);
      chosen.push_back(d.policy_index);
      pol[i] = d.policy;
    }
    sim.step_due(pol, meas);
    for (std::size_t i = 0; i < due.size(); ++i) {
      // policy_index was just recorded in order; reuse it for the update.
      agents[due[i]].update(ctx[i],
                            chosen[chosen.size() - due.size() + i], meas[i]);
    }
    decisions += due.size();
  }
  return chosen;
}

TEST(FleetEngine, BatchedDispatchBitIdenticalToSerialLoop) {
  const std::size_t cells = 10, periods = 6;
  const auto reference = drive_hand_rolled(cells, periods);
  for (const Dispatch mode : {Dispatch::kBatches, Dispatch::kServe}) {
    for (const std::size_t threads : {4, 2, 1}) {
      SCOPED_TRACE(testing::Message()
                   << (mode == Dispatch::kServe ? "serve_batch" : "batches")
                   << ", " << threads << " threads");
      const auto chosen = drive(cells, threads, periods, mode);
      ASSERT_EQ(chosen.size(), reference.size());
      EXPECT_EQ(chosen, reference);
    }
  }
}

TEST(FleetEngine, ValidatesArguments) {
  core::FleetEngineConfig ec;
  ec.num_threads = 0;
  EXPECT_THROW(core::FleetEngine(tiny_grid(), ec), std::invalid_argument);

  ec.num_threads = 1;
  ec.cell = tiny_cell();
  core::FleetEngine engine(tiny_grid(), ec);
  engine.add_cell();
  std::vector<std::size_t> due = {0};
  std::vector<env::Context> ctx(2);
  std::vector<core::Decision> dec(1);
  EXPECT_THROW(engine.decide_batch(due, ctx, dec), std::invalid_argument);
  std::vector<env::Measurement> meas(2);
  ctx.resize(1);
  EXPECT_THROW(engine.update_batch(due, ctx, dec, meas),
               std::invalid_argument);
  std::vector<core::CellFeedback> fb(2);
  EXPECT_THROW(engine.serve_batch(due, ctx, fb, dec, [](std::size_t) {}),
               std::invalid_argument);
}

TEST(FleetEngine, TracksPerCellDecideLatency) {
  env::FleetSim sim(small_scenario(6, 5));
  core::FleetEngineConfig ec;
  ec.num_threads = 2;
  ec.cell = tiny_cell();
  core::FleetEngine engine(tiny_grid(), ec);
  for (std::size_t i = 0; i < 6; ++i) engine.add_cell();
  const auto due = sim.next_due();
  std::vector<env::Context> ctx(due.size());
  std::vector<core::Decision> dec(due.size());
  sim.due_contexts(ctx);
  engine.decide_batch(due, ctx, dec);
  const auto lat = engine.last_decide_ms();
  ASSERT_EQ(lat.size(), due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    EXPECT_GT(lat[i], 0.0);
    EXPECT_GT(engine.load_estimate_ms(due[i]), 0.0);
  }
}

// Drive an engine+sim pair for `periods` decisions per current cell.
void run_fleet(env::FleetSim& sim, core::FleetEngine& engine,
               std::size_t total_decisions) {
  std::vector<env::Context> ctx;
  std::vector<core::Decision> dec;
  std::vector<env::ControlPolicy> pol;
  std::vector<env::Measurement> meas;
  std::size_t decisions = 0;
  while (decisions < total_decisions) {
    const auto due = sim.next_due();
    const std::size_t n = due.size();
    ctx.resize(n);
    dec.resize(n);
    pol.resize(n);
    meas.resize(n);
    sim.due_contexts(ctx);
    engine.decide_batch(due, ctx, dec);
    for (std::size_t i = 0; i < n; ++i) pol[i] = dec[i].policy;
    sim.step_due(pol, meas, engine.pool());
    engine.update_batch(due, ctx, dec, meas);
    decisions += n;
  }
}

TEST(FleetEngine, WarmStartConsultsNearestDonorsAndBlendsHyperparams) {
  env::FleetSim sim(small_scenario(4, 13));
  core::FleetEngineConfig ec;
  ec.num_threads = 1;
  ec.transfer_k = 2;
  ec.transfer_min_obs = 4;
  ec.cell = tiny_cell();
  core::FleetEngine engine(tiny_grid(), ec);
  // Heterogeneous donor hyperparameters: the blend must land strictly
  // inside the donors' amplitude range.
  const double amps[4] = {0.6, 1.0, 1.8, 2.6};
  for (std::size_t i = 0; i < 4; ++i) {
    core::EdgeBolConfig cfg = tiny_cell();
    cfg.cost_hp = core::default_cost_hyperparams();
    cfg.cost_hp.amplitude = amps[i];
    engine.add_cell(cfg);
  }
  run_fleet(sim, engine, 4 * 8);

  const std::size_t new_id = sim.add_cell();
  const std::size_t id = engine.add_cell_warm(sim.testbed(new_id).context());
  EXPECT_EQ(id, new_id);
  const auto donors = engine.last_transfer_donors();
  ASSERT_EQ(donors.size(), 2u);
  EXPECT_NE(donors[0], donors[1]);
  EXPECT_GT(engine.cell(id).num_observations(), 0u);  // evidence imported
  double lo = 1e300, hi = -1e300;
  for (const std::size_t d : donors) {
    lo = std::min(lo, engine.cell(d).config().cost_hp.amplitude);
    hi = std::max(hi, engine.cell(d).config().cost_hp.amplitude);
  }
  const double blended = engine.cell(id).config().cost_hp.amplitude;
  EXPECT_GE(blended, lo);
  EXPECT_LE(blended, hi);
}

TEST(FleetEngine, WarmStartFallsBackToColdWithoutDonors) {
  core::FleetEngineConfig ec;
  ec.num_threads = 1;
  ec.cell = tiny_cell();
  core::FleetEngine engine(tiny_grid(), ec);
  env::Context ctx;
  const std::size_t id = engine.add_cell_warm(ctx);
  EXPECT_EQ(id, 0u);
  EXPECT_TRUE(engine.last_transfer_donors().empty());
  EXPECT_EQ(engine.cell(id).num_observations(), 0u);
}

TEST(EdgeBolTransfer, ExportImportPreservesEvidenceAndDecisions) {
  env::FleetSim sim(small_scenario(1, 77));
  // Zero tracking tolerance: the teacher must decide from the EXACT final
  // context, not a cached one within the flutter band, or the end-of-test
  // decision comparison against the fresh student is apples-to-oranges.
  core::EdgeBolConfig cfg = tiny_cell();
  cfg.tracking_tolerance = 0.0;
  core::EdgeBol teacher(tiny_grid(), cfg);
  env::Context last_ctx;
  for (int t = 0; t < 12; ++t) {
    const env::Context c = sim.testbed(0).context();
    const core::Decision d = teacher.select(c);
    const env::Measurement m = sim.testbed(0).step(d.policy);
    teacher.update(c, d.policy_index, m);
    last_ctx = c;
  }
  const auto rows = teacher.export_observations(64);
  ASSERT_GT(rows.size(), 0u);

  core::EdgeBol student(tiny_grid(), cfg);
  student.import_observations(rows);
  EXPECT_EQ(student.num_observations(), teacher.num_observations());

  // Round-tripped evidence: the student's export matches the teacher's to
  // transform precision (units are divided/multiplied by the same scales).
  const auto rows2 = student.export_observations(64);
  ASSERT_EQ(rows2.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows2[i].z.size(), rows[i].z.size());
    for (std::size_t k = 0; k < rows[i].z.size(); ++k)
      EXPECT_EQ(rows2[i].z[k], rows[i].z[k]);
    EXPECT_NEAR(rows2[i].cost, rows[i].cost, 1e-9 * std::abs(rows[i].cost));
    EXPECT_NEAR(rows2[i].delay_s, rows[i].delay_s,
                1e-9 * std::abs(rows[i].delay_s));
    EXPECT_NEAR(rows2[i].map, rows[i].map, 1e-9);
  }

  // Same evidence, same posterior, same decision.
  const core::Decision dt = teacher.select(last_ctx);
  const core::Decision ds = student.select(last_ctx);
  EXPECT_EQ(dt.policy_index, ds.policy_index);
  EXPECT_EQ(dt.safe_set_size, ds.safe_set_size);
}

TEST(EdgeBolTransfer, ImportRejectsMalformedRows) {
  core::EdgeBol agent(tiny_grid(), tiny_cell());
  core::PseudoObservation row;
  row.z = linalg::Vector(3, 0.5);  // wrong joint dimension
  row.cost = 1.0;
  row.delay_s = 0.2;
  row.map = 0.5;
  std::vector<core::PseudoObservation> rows = {row};
  EXPECT_THROW(agent.import_observations(rows), std::invalid_argument);

  rows[0].z = linalg::Vector(7, 0.5);
  rows[0].cost = std::nan("");
  EXPECT_THROW(agent.import_observations(rows), std::invalid_argument);

  rows[0].cost = 1.0;
  rows[0].delay_s = -0.1;
  EXPECT_THROW(agent.import_observations(rows), std::invalid_argument);

  rows[0].delay_s = 0.2;
  rows[0].map = 2.0;
  EXPECT_THROW(agent.import_observations(rows), std::invalid_argument);
}

// The headline transfer claim, at test scale (6^4 grid, few donors): the
// warm joiner reaches the cold joiner's converged trailing-mean cost in at
// most HALF the periods, and never violates the delay bound more often.
TEST(FleetTransfer, WarmJoinerConvergesInHalfThePeriods) {
  constexpr std::size_t kDonors = 6;
  constexpr std::size_t kWarmup = 25;
  constexpr std::size_t kHorizon = 80;
  constexpr std::size_t kWindow = 5;

  struct JoinerRun {
    std::vector<double> cost;
    std::size_t delay_violations = 0;
  };
  const auto run_joiner = [&](bool warm) {
    env::FleetScenario sc;
    sc.num_cells = kDonors;
    sc.seed = 23;
    sc.users_min = 2;  // narrow population: donors resemble the joiner
    sc.users_max = 2;
    sc.snr_lo_db = 28.0;
    sc.snr_hi_db = 36.0;
    env::FleetSim sim(sc);

    core::FleetEngineConfig ec;
    ec.num_threads = 2;
    core::EdgeBolConfig cell = tiny_cell();
    cell.gp_budget = 64;
    ec.cell = cell;
    env::GridSpec spec;
    spec.levels_per_dim = 6;  // enough grid for a slow cold expansion
    core::FleetEngine engine(env::ControlGrid{spec}, ec);
    for (std::size_t i = 0; i < kDonors; ++i) engine.add_cell();
    run_fleet(sim, engine, kDonors * kWarmup);

    const std::size_t new_id = sim.add_cell();
    const std::size_t engine_id =
        warm ? engine.add_cell_warm(sim.testbed(new_id).context())
             : engine.add_cell();
    EXPECT_EQ(engine_id, new_id);
    if (warm) {
      EXPECT_FALSE(engine.last_transfer_donors().empty());
    }

    JoinerRun run;
    std::vector<env::Context> ctx;
    std::vector<core::Decision> dec;
    std::vector<env::ControlPolicy> pol;
    std::vector<env::Measurement> meas;
    while (run.cost.size() < kHorizon) {
      const auto due = sim.next_due();
      const std::size_t n = due.size();
      ctx.resize(n);
      dec.resize(n);
      pol.resize(n);
      meas.resize(n);
      sim.due_contexts(ctx);
      engine.decide_batch(due, ctx, dec);
      for (std::size_t i = 0; i < n; ++i) pol[i] = dec[i].policy;
      sim.step_due(pol, meas, engine.pool());
      engine.update_batch(due, ctx, dec, meas);
      for (std::size_t i = 0; i < n; ++i) {
        if (due[i] != new_id) continue;
        run.cost.push_back(engine.cell(new_id).weights().cost(
            meas[i].server_power_w, meas[i].bs_power_w));
        run.delay_violations +=
            meas[i].delay_s > engine.cell(new_id).constraints().d_max_s;
      }
    }
    return run;
  };

  const JoinerRun cold = run_joiner(false);
  const JoinerRun warm = run_joiner(true);

  double target = 0.0;
  for (std::size_t i = kHorizon - kWindow; i < kHorizon; ++i)
    target += cold.cost[i];
  target /= static_cast<double>(kWindow);

  const auto converge_time = [&](const std::vector<double>& cost) {
    for (std::size_t t = kWindow; t <= cost.size(); ++t) {
      double s = 0.0;
      for (std::size_t i = t - kWindow; i < t; ++i) s += cost[i];
      if (s / static_cast<double>(kWindow) <= 1.05 * target) return t;
    }
    return cost.size();
  };
  const std::size_t t_cold = converge_time(cold.cost);
  const std::size_t t_warm = converge_time(warm.cost);

  // The scenario must actually be hard for a cold start — otherwise the
  // halving claim below would be vacuous.
  EXPECT_GE(t_cold, 2 * kWindow);
  EXPECT_LE(2 * t_warm, t_cold)
      << "warm joiner took " << t_warm << " periods vs cold " << t_cold;
  EXPECT_LE(warm.delay_violations, cold.delay_violations);
}

}  // namespace
