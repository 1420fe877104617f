// One O-RAN process of the Fig. 7 split, selected by --role:
//
//   env     O-eNB/vBS + edge testbed. Listens on one connection each for
//           the e2 and svc links (ephemeral ports, published as
//           <dir>/e2.port, <dir>/svc.port).
//   nearrt  Near-RT RIC xApps. Listens on one connection carrying a1 and
//           o1 as two streams (published as <dir>/nn.port) and dials the
//           env's e2 port.
//   nonrt   Non-RT RIC learner. Dials nn and svc, then drives EdgeBOL
//           through core::run_periods for --periods periods and writes
//           <dir>/done so the servers shut down. The testbed is remote, so
//           there is no noise-free outcome: the violation rate it reports
//           is core::violates on the measurement, labelled "measured".
//
// Every link is a MuxTransport stream (stream-id framing, batched
// readv/writev); E2 chaos flags apply to the e2 connection's client
// endpoint.
//
// Rendezvous is file-based: servers write "<port>\n" to <dir>/<link>.port
// (atomically, via rename) and clients poll for the files, so the three
// processes can be launched in any order. See
// scripts/run_three_process_demo.sh for the canonical invocation.
//
//   ric_node --role env    --dir DIR [--seed S] [--snr DB]
//   ric_node --role nearrt --dir DIR [--e2-drop R] [--e2-delay R]
//            [--e2-partition START_MS:DUR_MS] [--chaos-seed S]
//   ric_node --role nonrt  --dir DIR [--periods N] [--out PATH]
//
// A fourth mode runs everything in one process and checks the equivalence
// claim — the message plane must reproduce the in-process loopback
// (OranManagedTestbed) trajectory bit-for-bit on the same seed:
//
//   ric_node --verify-loopback [--periods N] [--seed S]

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "plane_harness.hpp"

namespace {

using namespace edgebol;

using Period = core::PeriodRecord<core::Decision>;

/// Run `periods` periods of a fresh canonical agent on `env`, keeping every
/// record.
template <typename Env>
std::vector<Period> run_canonical(Env& env, int periods) {
  core::EdgeBol agent(env::ControlGrid{}, plane::canonical_agent_config());
  std::vector<Period> history;
  core::run_periods(env, agent, periods,
                    [&](const Period& r) { history.push_back(r); });
  return history;
}

struct Options {
  std::string role;
  std::string dir;
  std::string out;
  int periods = 60;
  std::uint64_t seed = 1;
  double snr_db = 35.0;
  bool verify_loopback = false;
  // NearRT-side chaos on the e2 client endpoint.
  double e2_drop = 0.0;
  double e2_delay = 0.0;
  std::int64_t partition_start_ms = -1;
  std::int64_t partition_dur_ms = 0;
  std::uint64_t chaos_seed = 7;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --role env|nearrt|nonrt --dir DIR [--periods N]\n"
      "          [--seed S] [--snr DB] [--out PATH] [--e2-drop R]\n"
      "          [--e2-delay R] [--e2-partition START_MS:DUR_MS]\n"
      "          [--chaos-seed S]\n"
      "       %s --verify-loopback [--periods N] [--seed S]\n",
      argv0, argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--role") == 0) {
      o.role = next("--role");
    } else if (std::strcmp(argv[i], "--dir") == 0) {
      o.dir = next("--dir");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      o.out = next("--out");
    } else if (std::strcmp(argv[i], "--periods") == 0) {
      o.periods = std::atoi(next("--periods"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      o.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (std::strcmp(argv[i], "--snr") == 0) {
      o.snr_db = std::atof(next("--snr"));
    } else if (std::strcmp(argv[i], "--e2-drop") == 0) {
      o.e2_drop = std::atof(next("--e2-drop"));
    } else if (std::strcmp(argv[i], "--e2-delay") == 0) {
      o.e2_delay = std::atof(next("--e2-delay"));
    } else if (std::strcmp(argv[i], "--e2-partition") == 0) {
      const std::string spec = next("--e2-partition");
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos) usage(argv[0]);
      o.partition_start_ms = std::atoll(spec.substr(0, colon).c_str());
      o.partition_dur_ms = std::atoll(spec.substr(colon + 1).c_str());
    } else if (std::strcmp(argv[i], "--chaos-seed") == 0) {
      o.chaos_seed = static_cast<std::uint64_t>(std::atoll(next("--chaos-seed")));
    } else if (std::strcmp(argv[i], "--verify-loopback") == 0) {
      o.verify_loopback = true;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
      usage(argv[0]);
    }
  }
  if (!o.verify_loopback && (o.role.empty() || o.dir.empty())) usage(argv[0]);
  return o;
}

// --- file-based rendezvous -------------------------------------------------

void publish_port(const std::string& dir, const std::string& link,
                  std::uint16_t port) {
  const std::string tmp = dir + "/" + link + ".port.tmp";
  const std::string path = dir + "/" + link + ".port";
  {
    std::ofstream os(tmp);
    os << port << "\n";
  }
  // Rename is atomic, so a polling client never reads a half-written file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "ric_node: cannot publish %s\n", path.c_str());
    std::exit(1);
  }
}

/// Poll for <dir>/<link>.port (the peer may not have started yet).
std::uint16_t await_port(const std::string& dir, const std::string& link,
                         int timeout_ms = 30000) {
  const std::string path = dir + "/" + link + ".port";
  const double deadline = plane::now_ms() + timeout_ms;
  while (plane::now_ms() < deadline) {
    std::ifstream is(path);
    int port = 0;
    if (is >> port && port > 0 && port < 65536)
      return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "ric_node: timed out waiting for %s\n", path.c_str());
  std::exit(1);
}

bool done_flag_exists(const std::string& dir) {
  std::ifstream is(dir + "/done");
  return is.good();
}

/// Server roles stop when the learner writes <dir>/done.
std::thread watch_done(const std::string& dir, std::atomic<bool>* stop,
                       net::ReadySignal* ready) {
  return std::thread([dir, stop, ready] {
    while (!stop->load()) {
      if (done_flag_exists(dir)) {
        stop->store(true);
        ready->notify();  // wake the serving loop out of its wait
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
}

// --- roles -----------------------------------------------------------------

int run_env(const Options& o) {
  env::TestbedConfig tcfg;
  tcfg.seed = o.seed;
  env::Testbed tb = env::make_static_testbed(o.snr_db, tcfg);

  net::EventLoop loop;
  net::ReadySignal ready;
  auto e2ep = net::MuxEndpoint::listen(
      &loop, 0, plane::mux_link_config("e2/env", &ready));
  auto svcep = net::MuxEndpoint::listen(
      &loop, 0, plane::mux_link_config("svc/env", &ready));
  net::Transport* e2 = e2ep->open_stream(
      plane::MuxPlane::kE2,
      plane::mux_stream_config("e2/env", net::BackpressurePolicy::kBlock));
  net::Transport* svc = svcep->open_stream(
      plane::MuxPlane::kSvc,
      plane::mux_stream_config("svc/env", net::BackpressurePolicy::kBlock));
  publish_port(o.dir, "e2", e2ep->local_port());
  publish_port(o.dir, "svc", svcep->local_port());
  std::fprintf(stderr, "ric_node[env]: e2 on %u, svc on %u\n",
               e2ep->local_port(), svcep->local_port());

  oran::EnvNode node(tb, e2, svc, &ready);
  std::atomic<bool> stop{false};
  std::thread watcher = watch_done(o.dir, &stop, &ready);
  node.run(stop);
  watcher.join();
  std::fprintf(stderr,
               "ric_node[env]: %zu steps (%zu duplicate), %zu controls "
               "(%zu duplicate), %zu rejects\n",
               node.steps_run(), node.duplicate_steps(),
               node.controls_applied(), node.duplicate_controls(),
               node.decode_rejects());
  return 0;
}

int run_nearrt(const Options& o) {
  plane::LinkChaos chaos;
  chaos.rates.frames.drop = o.e2_drop;
  chaos.rates.frames.delay = o.e2_delay;
  if (o.partition_start_ms >= 0)
    chaos.rates.partitions.push_back(
        {o.partition_start_ms, o.partition_dur_ms, false});
  chaos.seed = o.chaos_seed;

  const std::uint16_t e2_port = await_port(o.dir, "e2");
  net::EventLoop loop;
  net::ReadySignal ready;
  auto nn = net::MuxEndpoint::listen(
      &loop, 0, plane::mux_link_config("nn/nearrt", &ready));
  net::Transport* a1 = nn->open_stream(
      plane::MuxPlane::kA1,
      plane::mux_stream_config("a1/nearrt", net::BackpressurePolicy::kBlock));
  net::Transport* o1 = nn->open_stream(
      plane::MuxPlane::kO1,
      plane::mux_stream_config("o1/nearrt",
                               net::BackpressurePolicy::kShedOldest));
  auto e2ep = net::MuxEndpoint::connect(
      &loop, "127.0.0.1", e2_port,
      plane::mux_link_config("e2/nearrt", &ready, chaos));
  net::Transport* e2 = e2ep->open_stream(
      plane::MuxPlane::kE2,
      plane::mux_stream_config("e2/nearrt", net::BackpressurePolicy::kBlock));
  publish_port(o.dir, "nn", nn->local_port());
  std::fprintf(stderr, "ric_node[nearrt]: nn (a1 + o1) on %u, e2 -> %u\n",
               nn->local_port(), e2_port);

  oran::NearRtRicNode node(a1, e2, o1, &ready);
  std::atomic<bool> stop{false};
  std::thread watcher = watch_done(o.dir, &stop, &ready);
  node.run(stop);
  watcher.join();
  // Reconnect/timeout/partition supervision lives at the connection level,
  // so those counters come from the e2 endpoint.
  const net::TransportStats e2s = e2ep->stats().link;
  std::fprintf(stderr,
               "ric_node[nearrt]: %zu accepted, %zu rejected, %zu e2 "
               "failures, %zu forwarded (%zu stale); e2 reconnects=%llu "
               "peer_timeouts=%llu partition_drops=%llu\n",
               node.policies_accepted(), node.policies_rejected(),
               node.e2_apply_failures(), node.indications_forwarded(),
               node.stale_indications(),
               static_cast<unsigned long long>(e2s.reconnects),
               static_cast<unsigned long long>(e2s.peer_timeouts),
               static_cast<unsigned long long>(e2s.chaos_partition_drops));
  return 0;
}

int run_nonrt(const Options& o) {
  const std::uint16_t nn_port = await_port(o.dir, "nn");
  const std::uint16_t svc_port = await_port(o.dir, "svc");
  net::EventLoop loop;
  net::ReadySignal ready;
  auto nn = net::MuxEndpoint::connect(
      &loop, "127.0.0.1", nn_port, plane::mux_link_config("nn/nonrt", &ready));
  auto svcep = net::MuxEndpoint::connect(
      &loop, "127.0.0.1", svc_port,
      plane::mux_link_config("svc/nonrt", &ready));
  net::Transport* a1 = nn->open_stream(
      plane::MuxPlane::kA1,
      plane::mux_stream_config("a1/nonrt", net::BackpressurePolicy::kBlock));
  net::Transport* o1 = nn->open_stream(
      plane::MuxPlane::kO1,
      plane::mux_stream_config("o1/nonrt",
                               net::BackpressurePolicy::kShedOldest));
  net::Transport* svc = svcep->open_stream(
      plane::MuxPlane::kSvc,
      plane::mux_stream_config("svc/nonrt", net::BackpressurePolicy::kBlock));

  oran::NonRtRicNode node(a1, o1, svc, &ready);
  // Ensure the servers learn about completion even if we bail early.
  struct DoneFlag {
    std::string path;
    ~DoneFlag() { std::ofstream os(path); }
  } done{o.dir + "/done"};

  if (!node.handshake()) {
    std::fprintf(stderr, "ric_node[nonrt]: handshake failed\n");
    return 1;
  }
  std::fprintf(stderr, "ric_node[nonrt]: handshake ok, running %d periods\n",
               o.periods);

  const std::vector<Period> hist = run_canonical(node, o.periods);

  // Costs of periods that ran dark (a NaN KPI) are left out of the means;
  // the tail is the last quarter of the run.
  const core::EdgeBolConfig cfg = plane::canonical_agent_config();
  std::vector<double> cost;
  RunningStats all, tail;
  int violations = 0;
  const int tail_start = o.periods - std::max(1, o.periods / 4);
  for (const Period& r : hist) {
    const env::Measurement& m = r.measurement;
    cost.push_back(cfg.weights.cost(m.server_power_w, m.bs_power_w));
    if (std::isfinite(cost.back())) {
      all.add(cost.back());
      if (r.period >= tail_start) tail.add(cost.back());
    }
    violations += core::violates(cfg.constraints, m);
  }
  const double measured_violation_rate =
      hist.empty() ? 0.0 : static_cast<double>(violations) / hist.size();

  std::fprintf(stderr,
               "ric_node[nonrt]: mean cost %.4f (tail %.4f), measured "
               "violation rate %.3f, safe set %zu; delivery failures %zu, "
               "kpi losses %zu\n",
               all.mean(), tail.mean(), measured_violation_rate,
               hist.empty() ? 0 : hist.back().decision.safe_set_size,
               node.policy_delivery_failures(), node.kpi_losses());

  if (!o.out.empty()) {
    std::ofstream os(o.out);
    os.precision(17);
    os << "{\n  \"periods\": " << hist.size()
       << ",\n  \"mean_cost\": " << all.mean()
       << ",\n  \"tail_mean_cost\": " << tail.mean()
       << ",\n  \"measured_violation_rate\": " << measured_violation_rate
       << ",\n  \"trajectory\": [\n";
    for (std::size_t i = 0; i < hist.size(); ++i) {
      const env::ControlPolicy& p = hist[i].policy;
      os << "    {\"resolution\": " << p.resolution
         << ", \"airtime\": " << p.airtime
         << ", \"gpu_speed\": " << p.gpu_speed
         << ", \"mcs_cap\": " << p.mcs_cap << ", \"cost\": ";
      // A period that ran dark has a NaN cost (no KPI sample); bare "nan"
      // is not JSON, so degrade to null.
      if (std::isfinite(cost[i])) {
        os << cost[i];
      } else {
        os << "null";
      }
      os << "}" << (i + 1 < hist.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::fprintf(stderr, "ric_node[nonrt]: wrote %s\n", o.out.c_str());
  }
  return 0;
}

// --- loopback equivalence --------------------------------------------------

/// The plane run: handshake, drive the agent, return the history.
/// Fails (false) on handshake failure or any chaos-free-run degradation
/// (kpi losses / delivery failures).
bool run_plane(const Options& o, const env::TestbedConfig& tcfg,
               std::vector<Period>* got) {
  plane::MuxPlane net_plane;
  plane::PlaneNodes nodes(net_plane, env::make_static_testbed(o.snr_db, tcfg));
  if (!nodes.nonrt.handshake()) {
    std::fprintf(stderr, "verify-loopback: handshake failed\n");
    return false;
  }
  *got = run_canonical(nodes.nonrt, o.periods);
  if (nodes.nonrt.kpi_losses() != 0 ||
      nodes.nonrt.policy_delivery_failures() != 0) {
    std::fprintf(stderr,
                 "verify-loopback: FAIL (chaos-free run degraded: %zu kpi "
                 "losses, %zu delivery failures)\n",
                 nodes.nonrt.kpi_losses(),
                 nodes.nonrt.policy_delivery_failures());
    return false;
  }
  return true;
}

bool compare_trajectories(const std::vector<Period>& ref,
                          const std::vector<Period>& got) {
  if (ref.size() != got.size()) {
    std::fprintf(stderr, "verify-loopback: FAIL (%zu vs %zu periods)\n",
                 ref.size(), got.size());
    return false;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const env::ControlPolicy& a = ref[i].decision.policy;
    const env::ControlPolicy& b = got[i].decision.policy;
    const env::Measurement& ma = ref[i].measurement;
    const env::Measurement& mb = got[i].measurement;
    const bool policy_eq = a.resolution == b.resolution &&
                           a.airtime == b.airtime &&
                           a.gpu_speed == b.gpu_speed &&
                           a.mcs_cap == b.mcs_cap;
    const bool meas_eq = ma.delay_s == mb.delay_s && ma.map == mb.map &&
                         ma.server_power_w == mb.server_power_w &&
                         ma.bs_power_w == mb.bs_power_w;
    if (!policy_eq || !meas_eq) {
      std::fprintf(stderr,
                   "verify-loopback: FAIL at period %zu\n"
                   "  loopback policy (%.17g, %.17g, %.17g, %d) "
                   "delay %.17g map %.17g\n"
                   "  plane    policy (%.17g, %.17g, %.17g, %d) "
                   "delay %.17g map %.17g\n",
                   i, a.resolution, a.airtime, a.gpu_speed, a.mcs_cap,
                   ma.delay_s, ma.map, b.resolution, b.airtime,
                   b.gpu_speed, b.mcs_cap, mb.delay_s, mb.map);
      return false;
    }
  }
  return true;
}

int run_verify_loopback(const Options& o) {
  env::TestbedConfig tcfg;
  tcfg.seed = o.seed;

  // Reference: the same three node roles on one thread over loopback links.
  std::vector<Period> ref;
  {
    env::Testbed tb = env::make_static_testbed(o.snr_db, tcfg);
    oran::OranManagedTestbed managed(tb);
    ref = run_canonical(managed, o.periods);
  }

  // Candidate: the same split across the message plane (three sockets).
  std::vector<Period> got;
  if (!run_plane(o, tcfg, &got)) return 1;
  if (!compare_trajectories(ref, got)) return 1;

  std::fprintf(stderr,
               "verify-loopback: PASS (%d periods; the message plane matches "
               "the in-process loopback trajectory bit-for-bit)\n",
               o.periods);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.verify_loopback) return run_verify_loopback(o);
  if (o.role == "env") return run_env(o);
  if (o.role == "nearrt") return run_nearrt(o);
  if (o.role == "nonrt") return run_nonrt(o);
  std::fprintf(stderr, "%s: unknown role '%s'\n", argv[0], o.role.c_str());
  usage(argv[0]);
}
