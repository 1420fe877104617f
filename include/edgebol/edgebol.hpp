// Umbrella header for the EdgeBOL library.
//
// Pull in the public API in one line:
//   #include <edgebol/edgebol.hpp>
//
// Layering (bottom to top):
//   common/linalg  -> gp            (Gaussian-process online regression)
//   fault                           (deterministic chaos injection)
//   net                             (asynchronous TCP message plane)
//   ran/edge/service -> env         (the calibrated testbed simulator)
//   oran                            (A1/E2/O1 control-plane plumbing)
//   core                            (the EdgeBOL algorithm itself, and the
//                                    one period loop: core::run_periods)
//   nn -> baselines                 (oracle, DDPG, epsilon-greedy, random)

#pragma once

#include "baselines/ddpg.hpp"
#include "baselines/egreedy.hpp"
#include "baselines/linucb.hpp"
#include "baselines/oracle.hpp"
#include "baselines/random_search.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/acquisition.hpp"
#include "core/edgebol.hpp"
#include "core/fleet_engine.hpp"
#include "core/formulations.hpp"
#include "core/generic_bol.hpp"
#include "core/multi_service_bol.hpp"
#include "core/period_loop.hpp"
#include "core/safe_set.hpp"
#include "edge/gpu_model.hpp"
#include "edge/server.hpp"
#include "env/context.hpp"
#include "env/control_grid.hpp"
#include "env/event_sim.hpp"
#include "env/fleet_sim.hpp"
#include "env/multi_service.hpp"
#include "env/policy.hpp"
#include "env/scenarios.hpp"
#include "env/testbed.hpp"
#include "fault/fault.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/hyperopt.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "net/chaos.hpp"
#include "net/event_loop.hpp"
#include "net/mux_framing.hpp"
#include "net/mux_transport.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "oran/apps.hpp"
#include "oran/fleet_plane.hpp"
#include "oran/messages.hpp"
#include "oran/oran_env.hpp"
#include "oran/ric.hpp"
#include "oran/ric_node.hpp"
#include "ran/bs_power_model.hpp"
#include "ran/channel.hpp"
#include "ran/cqi.hpp"
#include "ran/harq.hpp"
#include "ran/mcs_tables.hpp"
#include "ran/scheduler.hpp"
#include "ran/vbs.hpp"
#include "service/confidence_model.hpp"
#include "service/image_source.hpp"
#include "service/map_model.hpp"
#include "service/pipeline.hpp"
#include "telemetry/power_meter.hpp"
