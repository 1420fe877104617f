// Long-horizon per-period cost: observation budget vs unbounded storage.
//
// Runs the EdgeBOL loop for thousands of periods twice on the same static
// testbed — once with EdgeBolConfig::gp_budget set (sliding-window
// downdates keep every surrogate at B observations) and once unbounded
// (the paper's setting, where the factor grows with t). At checkpoints
// t in {T/10, T/2, T} it reports the p50/p99 of the per-period decision
// cost (select + update wall time; the simulated testbed step is untimed)
// over the trailing T/10 periods, plus the process RSS. The budgeted run
// goes first so each run's VmHWM reading is attributable to it.
//
// This is the evidence harness for the budget's two claims:
//   * latency flat: budgeted p50 at t=T within ~1.25x of t=T/10, while the
//     unbounded run's grows with t (O(t) fold + O(t^2) memory traffic);
//   * quality kept: budgeted mean cost and constraint-violation count stay
//     within a few percent of the unbounded run's on the same seed. A
//     violation is core::violates on the chosen policy's noise-free
//     outcome.
//
// The loop is written out rather than run through core::run_periods
// because it times select and update apart from the step.
//
// Usage: bench_long_horizon [--smoke] [--periods N] [--budget B]
//                           [--grid L] [--threads N] [--eviction oldest|minlev]
//                           [--out PATH]
// Emits BENCH_long_horizon.json alongside the human-readable tables.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace edgebol;

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

// VmRSS / VmHWM from /proc/self/status, in MiB (0.0 when unavailable —
// non-Linux hosts still run the latency side of the bench).
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

struct Checkpoint {
  std::size_t t = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rss_mb = 0.0;
};

struct RunResult {
  std::string name;
  std::vector<Checkpoint> checkpoints;
  double peak_rss_mb = 0.0;
  double mean_cost = 0.0;
  std::size_t violations = 0;
  std::size_t observations = 0;  // surrogate size at the end of the run
};

struct Config {
  bool smoke = false;
  std::size_t periods = 5000;
  std::size_t budget = 200;
  std::size_t grid_levels = 5;  // 5^4 = 625 candidates
  std::size_t threads = 1;
  gp::EvictionPolicy eviction = gp::EvictionPolicy::kOldest;
  std::string out = "BENCH_long_horizon.json";
};

// One full loop; budget 0 = unbounded. Timing covers the agent's work only
// (select + update); the noise-free outcome and the testbed step in between
// are simulation, not agent.
RunResult run_loop(const Config& cfg, std::size_t budget, const char* name) {
  env::Testbed tb = env::make_static_testbed(35.0);

  env::GridSpec spec;
  spec.levels_per_dim = cfg.grid_levels;

  core::EdgeBolConfig agent_cfg;
  agent_cfg.weights = {1.0, 8.0};
  agent_cfg.constraints = {0.4, 0.5};
  agent_cfg.gp_budget = budget;
  agent_cfg.gp_eviction = cfg.eviction;
  agent_cfg.num_threads = cfg.threads;
  core::EdgeBol agent(env::ControlGrid{spec}, agent_cfg);

  const std::size_t window = std::max<std::size_t>(cfg.periods / 10, 10);
  std::vector<std::size_t> marks = {window, cfg.periods / 2, cfg.periods};
  std::sort(marks.begin(), marks.end());
  marks.erase(std::remove_if(marks.begin(), marks.end(),
                             [&](std::size_t t) {
                               return t == 0 || t > cfg.periods;
                             }),
              marks.end());
  marks.erase(std::unique(marks.begin(), marks.end()), marks.end());

  RunResult res;
  res.name = name;
  std::vector<double> period_ms;
  period_ms.reserve(cfg.periods);
  double cost_sum = 0.0;

  for (std::size_t t = 1; t <= cfg.periods; ++t) {
    const env::Context c = tb.context();
    const double t0 = now_ms();
    const core::Decision d = agent.select(c);
    const double t1 = now_ms();
    const env::Measurement truth = tb.expected(d.policy);
    const env::Measurement m = tb.step(d.policy);
    const double t2 = now_ms();
    agent.update(c, d.policy_index, m);
    period_ms.push_back((t1 - t0) + (now_ms() - t2));

    cost_sum += agent.weights().cost(m.server_power_w, m.bs_power_w);
    res.violations += core::violates(agent.constraints(), truth);

    if (std::find(marks.begin(), marks.end(), t) != marks.end()) {
      const std::size_t lo = period_ms.size() - std::min(window, t);
      std::vector<double> tail(period_ms.begin() + static_cast<long>(lo),
                               period_ms.end());
      Checkpoint cp;
      cp.t = t;
      cp.p50_ms = percentile(tail, 50.0);
      cp.p99_ms = percentile(tail, 99.0);
      cp.rss_mb = proc_status_mb("VmRSS:");
      res.checkpoints.push_back(cp);
    }
  }

  res.peak_rss_mb = proc_status_mb("VmHWM:");
  res.mean_cost = cost_sum / static_cast<double>(cfg.periods);
  res.observations = agent.num_observations();
  return res;
}

void write_json(const Config& cfg, const std::vector<RunResult>& runs) {
  std::ofstream os(cfg.out);
  os.precision(6);
  os << "{\n  \"bench\": \"long_horizon\",\n";
  os << "  \"periods\": " << cfg.periods << ",\n";
  os << "  \"budget\": " << cfg.budget << ",\n";
  os << "  \"grid_levels\": " << cfg.grid_levels << ",\n";
  os << "  \"threads\": " << cfg.threads << ",\n";
  os << "  \"eviction\": \""
     << (cfg.eviction == gp::EvictionPolicy::kOldest ? "oldest" : "min_leverage")
     << "\",\n";
  os << "  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RunResult& run = runs[r];
    os << "    {\n      \"name\": \"" << run.name << "\",\n";
    os << "      \"checkpoints\": [\n";
    for (std::size_t i = 0; i < run.checkpoints.size(); ++i) {
      const Checkpoint& cp = run.checkpoints[i];
      os << "        {\"t\": " << cp.t << ", \"p50_ms\": " << cp.p50_ms
         << ", \"p99_ms\": " << cp.p99_ms << ", \"rss_mb\": " << cp.rss_mb
         << "}" << (i + 1 < run.checkpoints.size() ? "," : "") << "\n";
    }
    os << "      ],\n";
    os << "      \"peak_rss_mb\": " << run.peak_rss_mb << ",\n";
    os << "      \"mean_cost\": " << run.mean_cost << ",\n";
    os << "      \"violations\": " << run.violations << ",\n";
    os << "      \"observations\": " << run.observations << "\n";
    os << "    }" << (r + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--periods") == 0 && i + 1 < argc) {
      cfg.periods = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      cfg.budget = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      cfg.grid_levels = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      cfg.threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--eviction") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      if (std::strcmp(v, "oldest") == 0) {
        cfg.eviction = gp::EvictionPolicy::kOldest;
      } else if (std::strcmp(v, "minlev") == 0) {
        cfg.eviction = gp::EvictionPolicy::kMinLeverage;
      } else {
        std::fprintf(stderr, "unknown eviction policy: %s\n", v);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--periods N] [--budget B] [--grid L]"
                   " [--threads N] [--eviction oldest|minlev] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.smoke) {
    cfg.periods = 400;
    cfg.grid_levels = 4;
    cfg.budget = 60;
  }

  banner(std::cout, "Long horizon: budgeted GP (sliding window) vs unbounded");
  std::cout << "(" << cfg.periods << " periods, budget " << cfg.budget
            << ", grid " << cfg.grid_levels << "^4, threads " << cfg.threads
            << ")\n\n";

  std::vector<RunResult> runs;
  runs.push_back(run_loop(cfg, cfg.budget, "budgeted"));
  runs.push_back(run_loop(cfg, 0, "unbounded"));

  for (const RunResult& run : runs) {
    std::printf("%-10s (final obs %zu)\n", run.name.c_str(),
                run.observations);
    std::printf("  %8s %12s %12s %10s\n", "t", "p50(ms)", "p99(ms)",
                "rss(MB)");
    for (const Checkpoint& cp : run.checkpoints) {
      std::printf("  %8zu %12.4f %12.4f %10.1f\n", cp.t, cp.p50_ms, cp.p99_ms,
                  cp.rss_mb);
    }
    std::printf("  peak rss %.1f MB   mean cost %.4f   violations %zu\n\n",
                run.peak_rss_mb, run.mean_cost, run.violations);
  }

  const Checkpoint& b_first = runs[0].checkpoints.front();
  const Checkpoint& b_last = runs[0].checkpoints.back();
  const Checkpoint& u_first = runs[1].checkpoints.front();
  const Checkpoint& u_last = runs[1].checkpoints.back();
  std::printf("latency growth first->last checkpoint: budgeted %.2fx, "
              "unbounded %.2fx\n",
              b_last.p50_ms / b_first.p50_ms, u_last.p50_ms / u_first.p50_ms);
  const double cost_delta =
      100.0 * (runs[0].mean_cost - runs[1].mean_cost) / runs[1].mean_cost;
  std::printf("budgeted mean cost vs unbounded: %+.2f%%  (violations %zu vs "
              "%zu)\n",
              cost_delta, runs[0].violations, runs[1].violations);

  write_json(cfg, runs);
  std::fprintf(stderr, "wrote %s\n", cfg.out.c_str());
  return 0;
}
