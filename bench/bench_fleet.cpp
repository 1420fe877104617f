// Fleet-scale engine benchmark: batched decision dispatch over 1000+ cells.
//
// Three phases, each its own fleet:
//   * throughput — FleetSim with `--cells` heterogeneous cells (SNR and user
//     count drawn per cell), FleetEngine with `--threads` workers. Runs the
//     event loop for `--periods` periods per cell and reports aggregate
//     decision throughput (decisions per second of dispatch wall time), the
//     per-cell select() latency distribution (p50/p99 over every decision),
//     update throughput, and peak RSS.
//   * identity — a smaller fleet decided twice from identical initial state:
//     batched on the full pool vs a num_threads = 1 engine (no pool: the
//     serial in-order loop). Counts decisions whose chosen policy differs;
//     the contract (see core::FleetEngine) is ZERO for any thread/shard
//     count.
//   * transfer — donors run alone for a warmup, then one cell joins twice
//     from identical state: cold (template config) vs warm
//     (add_cell_warm: blended hyperparameters + imported
//     pseudo-observations from the K nearest donors). Reports how many
//     periods each joiner needs to reach the cold run's converged trailing
//     mean cost, and the warm/cold ratio of those counts.
//
// Emits BENCH_fleet.json with a top-level "metrics" object for
// scripts/perf_gate.py --ceiling. Throughput is gated inverted
// (us_per_decision_agg = 1e6 / decisions-per-sec) and the cell-count floor
// as a shortfall (cells_shortfall = max(0, 1000 - cells)) so every gated
// metric stays lower-is-better.
//
// Usage: bench_fleet [--smoke] [--cells N] [--threads N] [--periods N]
//                    [--out PATH]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/fleet_engine.hpp"
#include "env/fleet_sim.hpp"

namespace {

using namespace edgebol;

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream ls(line.substr(std::strlen(key) + 1));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

struct Config {
  bool smoke = false;
  bool throughput_only = false;  // scaling-table runs: skip identity/transfer
  std::size_t cells = 1000;
  std::size_t threads = 8;
  std::size_t periods = 12;  // per cell, throughput phase
  std::string out = "BENCH_fleet.json";
};

// Per-cell learner template shared by all phases: a mid-size operating
// point (5^4 grid, budget 64) where thousands of cells fit in one process
// (per-cell GP caches are a few hundred KB, vs tens of MB at the full 11^4
// grid) but one decision still costs enough that batching matters.
core::EdgeBolConfig cell_template() {
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  cfg.gp_budget = 64;
  return cfg;
}

env::ControlGrid small_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 5;  // 625 candidates
  return env::ControlGrid{spec};
}

// Scratch spans for one event-loop batch.
struct BatchScratch {
  std::vector<env::Context> ctx;
  std::vector<core::Decision> dec;
  std::vector<env::ControlPolicy> pol;
  std::vector<env::Measurement> meas;
  void fit(std::size_t n) {
    if (ctx.size() < n) {
      ctx.resize(n);
      dec.resize(n);
      pol.resize(n);
      meas.resize(n);
    }
  }
};

struct ThroughputResult {
  std::size_t decisions = 0;
  double decide_wall_ms = 0.0;  // sum of decide_batch wall times
  double update_wall_ms = 0.0;
  double total_wall_ms = 0.0;
  double p50_ms = 0.0;  // per-cell select latency
  double p99_ms = 0.0;
  double peak_rss_mb = 0.0;
  double dps() const { return 1e3 * static_cast<double>(decisions) /
                              decide_wall_ms; }
};

ThroughputResult run_throughput(const Config& cfg) {
  env::FleetScenario sc;
  sc.num_cells = cfg.cells;
  sc.seed = 7;
  // Coarse event quantum: jittered ~1 s periods snap to a few distinct
  // tick-aligned values, so hundreds of cells coincide per batch. At the
  // default 10 ms tick, batches carry only ~1% of the fleet and dispatch
  // overhead swamps the µs-scale per-cell decisions.
  sc.tick_s = 0.25;
  env::FleetSim sim(sc);

  core::FleetEngineConfig ec;
  ec.num_threads = cfg.threads;
  ec.cell = cell_template();
  core::FleetEngine engine(small_grid(), ec);
  for (std::size_t i = 0; i < cfg.cells; ++i) engine.add_cell();

  const std::size_t target = cfg.cells * cfg.periods;
  BatchScratch s;
  std::vector<double> lat;
  lat.reserve(target + cfg.cells);
  ThroughputResult res;
  const double t_start = now_ms();
  while (res.decisions < target) {
    const auto due = sim.next_due();
    const std::size_t n = due.size();
    s.fit(n);
    sim.due_contexts({s.ctx.data(), n});
    const double t0 = now_ms();
    engine.decide_batch(due, {s.ctx.data(), n}, {s.dec.data(), n});
    res.decide_wall_ms += now_ms() - t0;
    for (std::size_t i = 0; i < n; ++i) s.pol[i] = s.dec[i].policy;
    sim.step_due({s.pol.data(), n}, {s.meas.data(), n}, engine.pool());
    const double t1 = now_ms();
    engine.update_batch(due, {s.ctx.data(), n}, {s.dec.data(), n},
                        {s.meas.data(), n});
    res.update_wall_ms += now_ms() - t1;
    const auto ms = engine.last_decide_ms();
    lat.insert(lat.end(), ms.begin(), ms.end());
    res.decisions += n;
  }
  res.total_wall_ms = now_ms() - t_start;
  res.p50_ms = percentile(lat, 50.0);
  res.p99_ms = percentile(lat, 99.0);
  res.peak_rss_mb = proc_status_mb("VmHWM:");
  return res;
}

// Decide+update a fleet for `periods` per cell, returning every chosen
// policy index in batch order. Both calls see identical sims (same seed)
// and identically-constructed engines; only the thread count differs.
std::vector<std::size_t> run_identity(std::size_t cells, std::size_t periods,
                                      std::size_t threads) {
  env::FleetScenario sc;
  sc.num_cells = cells;
  sc.seed = 11;
  env::FleetSim sim(sc);

  core::FleetEngineConfig ec;
  ec.num_threads = threads;
  ec.cell = cell_template();
  core::FleetEngine engine(small_grid(), ec);
  for (std::size_t i = 0; i < cells; ++i) engine.add_cell();

  std::vector<std::size_t> chosen;
  chosen.reserve(cells * periods + cells);
  BatchScratch s;
  std::size_t decisions = 0;
  while (decisions < cells * periods) {
    const auto due = sim.next_due();
    const std::size_t n = due.size();
    s.fit(n);
    sim.due_contexts({s.ctx.data(), n});
    engine.decide_batch(due, {s.ctx.data(), n}, {s.dec.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      s.pol[i] = s.dec[i].policy;
      chosen.push_back(s.dec[i].policy_index);
    }
    // Testbeds also step serially in the reference run: the full loop, not
    // just the learner, must be dispatch-invariant.
    sim.step_due({s.pol.data(), n}, {s.meas.data(), n}, engine.pool());
    engine.update_batch(due, {s.ctx.data(), n}, {s.dec.data(), n},
                        {s.meas.data(), n});
    decisions += n;
  }
  return chosen;
}

struct TransferResult {
  std::size_t t_cold = 0;  // periods to reach the converged band, cold
  std::size_t t_warm = 0;
  double ratio = 1.0;      // t_warm / t_cold
  double cold_final = 0.0; // cold run's trailing mean cost (the target band)
  std::size_t donors = 0;  // donors actually consulted by add_cell_warm
  std::vector<double> cold_cost;  // joiner trajectories, for the report
  std::vector<double> warm_cost;
};

// Transfer-phase operating point: the full 11^4 grid, where a cold start
// must expand the safe set over tens of periods before it can reach the
// cheap region (fig. 9's convergence regime) — the regime transfer is for.
// The delay bound is lax: fleet cells are multi-user with heterogeneous
// SNR, so their corner delay sits higher than the single-user static
// testbed's and a tight bound would pin S0 forever.
core::EdgeBolConfig transfer_template() {
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.5, 0.4};
  cfg.gp_budget = 64;
  return cfg;
}

// Drive one fleet to `warmup` periods per donor, join one cell (cold or
// warm), then record the joiner's per-period cost for `horizon` periods.
std::vector<double> run_joiner(std::size_t donors, std::size_t warmup,
                               std::size_t horizon, bool warm,
                               std::size_t* donors_used) {
  env::FleetScenario sc;
  sc.num_cells = donors;
  sc.seed = 23;
  // A narrow cell population: every cell is a 2-user cell in a moderate SNR
  // band, so the donors actually resemble the joiner (the setting transfer
  // targets) and the corner stays delay-feasible on every draw.
  sc.users_min = 2;
  sc.users_max = 2;
  sc.snr_lo_db = 28.0;
  sc.snr_hi_db = 36.0;
  env::FleetSim sim(sc);

  core::FleetEngineConfig ec;
  ec.num_threads = 4;
  ec.cell = transfer_template();
  core::FleetEngine engine(env::ControlGrid{}, ec);  // full 11^4 grid
  for (std::size_t i = 0; i < donors; ++i) engine.add_cell();

  BatchScratch s;
  std::size_t warm_decisions = 0;
  while (warm_decisions < donors * warmup) {
    const auto due = sim.next_due();
    const std::size_t n = due.size();
    s.fit(n);
    sim.due_contexts({s.ctx.data(), n});
    engine.decide_batch(due, {s.ctx.data(), n}, {s.dec.data(), n});
    for (std::size_t i = 0; i < n; ++i) s.pol[i] = s.dec[i].policy;
    sim.step_due({s.pol.data(), n}, {s.meas.data(), n}, engine.pool());
    engine.update_batch(due, {s.ctx.data(), n}, {s.dec.data(), n},
                        {s.meas.data(), n});
    warm_decisions += n;
  }

  // The joiner: same FleetSim id in both runs, so its environment stream is
  // identical (derive_stream) — only the learner's starting state differs.
  const std::size_t new_id = sim.add_cell();
  std::size_t engine_id;
  if (warm) {
    engine_id = engine.add_cell_warm(sim.testbed(new_id).context());
    if (donors_used != nullptr) *donors_used =
        engine.last_transfer_donors().size();
  } else {
    engine_id = engine.add_cell();
    if (donors_used != nullptr) *donors_used = 0;
  }
  if (engine_id != new_id) std::abort();  // ids advance in lockstep

  std::vector<double> joiner_cost;
  joiner_cost.reserve(horizon);
  while (joiner_cost.size() < horizon) {
    const auto due = sim.next_due();
    const std::size_t n = due.size();
    s.fit(n);
    sim.due_contexts({s.ctx.data(), n});
    engine.decide_batch(due, {s.ctx.data(), n}, {s.dec.data(), n});
    for (std::size_t i = 0; i < n; ++i) s.pol[i] = s.dec[i].policy;
    sim.step_due({s.pol.data(), n}, {s.meas.data(), n}, engine.pool());
    engine.update_batch(due, {s.ctx.data(), n}, {s.dec.data(), n},
                        {s.meas.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      if (due[i] == new_id) {
        joiner_cost.push_back(engine.cell(new_id).weights().cost(
            s.meas[i].server_power_w, s.meas[i].bs_power_w));
      }
    }
  }
  return joiner_cost;
}

// First period whose trailing-`window` mean cost is within 5% of `target`
// (horizon if never reached — a loud failure, not a silent pass).
std::size_t converge_time(const std::vector<double>& cost, std::size_t window,
                          double target) {
  for (std::size_t t = window; t <= cost.size(); ++t) {
    double s = 0.0;
    for (std::size_t i = t - window; i < t; ++i) s += cost[i];
    if (s / static_cast<double>(window) <= 1.05 * target) return t;
  }
  return cost.size();
}

TransferResult run_transfer() {
  constexpr std::size_t kDonors = 10;
  constexpr std::size_t kWarmup = 40;
  constexpr std::size_t kHorizon = 150;
  constexpr std::size_t kWindow = 5;

  TransferResult res;
  res.cold_cost =
      run_joiner(kDonors, kWarmup, kHorizon, /*warm=*/false, nullptr);
  res.warm_cost =
      run_joiner(kDonors, kWarmup, kHorizon, /*warm=*/true, &res.donors);

  res.cold_final = bench::tail_mean(res.cold_cost, kWindow);
  res.t_cold = converge_time(res.cold_cost, kWindow, res.cold_final);
  res.t_warm = converge_time(res.warm_cost, kWindow, res.cold_final);
  res.ratio = static_cast<double>(res.t_warm) /
              static_cast<double>(std::max<std::size_t>(1, res.t_cold));
  return res;
}

void write_json(const Config& cfg, const ThroughputResult& tp,
                std::size_t mismatches, std::size_t identity_decisions,
                const TransferResult& tr) {
  std::ofstream os(cfg.out);
  os.precision(6);
  os << "{\n  \"bench\": \"fleet\",\n";
  os << "  \"cells\": " << cfg.cells << ",\n";
  os << "  \"threads\": " << cfg.threads << ",\n";
  os << "  \"periods\": " << cfg.periods << ",\n";
  os << "  \"decisions\": " << tp.decisions << ",\n";
  os << "  \"decisions_per_sec\": " << tp.dps() << ",\n";
  os << "  \"update_wall_ms\": " << tp.update_wall_ms << ",\n";
  os << "  \"total_wall_ms\": " << tp.total_wall_ms << ",\n";
  os << "  \"peak_rss_mb\": " << tp.peak_rss_mb << ",\n";
  os << "  \"identity_decisions\": " << identity_decisions << ",\n";
  os << "  \"transfer\": {\"t_cold\": " << tr.t_cold << ", \"t_warm\": "
     << tr.t_warm << ", \"donors\": " << tr.donors
     << ", \"cold_final_cost\": " << tr.cold_final << ",\n";
  const auto dump = [&os](const char* name, const std::vector<double>& xs) {
    os << "    \"" << name << "\": [";
    for (std::size_t i = 0; i < xs.size(); ++i)
      os << (i ? ", " : "") << xs[i];
    os << "]";
  };
  dump("cold_cost", tr.cold_cost);
  os << ",\n";
  dump("warm_cost", tr.warm_cost);
  os << "\n  },\n";
  os << "  \"metrics\": {\n";
  os << "    \"cells_shortfall\": "
     << (cfg.cells < 1000 ? 1000 - cfg.cells : 0) << ",\n";
  os << "    \"us_per_decision_agg\": " << 1e6 / tp.dps() << ",\n";
  os << "    \"decide_p50_ms\": " << tp.p50_ms << ",\n";
  os << "    \"decide_p99_ms\": " << tp.p99_ms << ",\n";
  os << "    \"identity_mismatches\": " << mismatches << ",\n";
  os << "    \"warm_cold_ratio\": " << tr.ratio << "\n";
  os << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--throughput-only") == 0) {
      cfg.throughput_only = true;
    } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
      cfg.cells = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      cfg.threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--periods") == 0 && i + 1 < argc) {
      cfg.periods = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--cells N] [--threads N]"
                   " [--periods N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.smoke) cfg.periods = std::min<std::size_t>(cfg.periods, 6);

  // Never oversubscribe: N workers sharing fewer cores preempt each other
  // mid-select, which corrupts the per-cell wall-time percentiles without
  // measuring anything a real deployment would do.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t requested = cfg.threads;
  cfg.threads = std::min(cfg.threads, hw);

  banner(std::cout, "Fleet engine: batched dispatch at scale");
  std::printf("(%zu cells, %zu threads (%zu requested, %zu hardware), "
              "%zu periods/cell)\n\n",
              cfg.cells, cfg.threads, requested, hw, cfg.periods);

  const ThroughputResult tp = run_throughput(cfg);
  std::printf("throughput: %zu decisions in %.0f ms dispatch wall "
              "(%.0f decisions/sec aggregate)\n",
              tp.decisions, tp.decide_wall_ms, tp.dps());
  std::printf("per-cell select latency: p50 %.4f ms, p99 %.4f ms\n",
              tp.p50_ms, tp.p99_ms);
  std::printf("update wall %.0f ms, loop total %.0f ms, peak rss %.1f MB\n\n",
              tp.update_wall_ms, tp.total_wall_ms, tp.peak_rss_mb);

  if (cfg.throughput_only) {
    std::printf("(identity and transfer phases skipped)\n");
    return 0;
  }

  const std::size_t id_cells = 48, id_periods = 20, id_threads = 8;
  const std::vector<std::size_t> batched =
      run_identity(id_cells, id_periods, id_threads);
  const std::vector<std::size_t> serial =
      run_identity(id_cells, id_periods, /*threads=*/1);
  std::size_t mismatches = batched.size() == serial.size() ? 0 : 1;
  if (mismatches == 0) {
    for (std::size_t i = 0; i < batched.size(); ++i)
      mismatches += batched[i] != serial[i];
  }
  std::printf("identity: %zu decisions batched-vs-serial, %zu mismatches\n\n",
              batched.size(), mismatches);

  const TransferResult tr = run_transfer();
  std::printf("transfer: cold converges in %zu periods, warm in %zu "
              "(ratio %.2f, %zu donors, target cost %.3f)\n",
              tr.t_cold, tr.t_warm, tr.ratio, tr.donors, tr.cold_final);

  write_json(cfg, tp, mismatches, batched.size(), tr);
  std::printf("\nwrote %s\n", cfg.out.c_str());
  return 0;
}
