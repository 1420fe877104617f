// The one control-period loop and the one violation rule.
//
// Algorithm 1's observe -> select -> act -> update cycle, for any agent and
// any environment exposing context()/step(). Per period the loop reads the
// context, calls select, takes the chosen policy's noise-free outcome where
// the environment has one (env::Testbed and oran::OranManagedTestbed have
// expected(); a remote oran::NonRtRicNode has none) before step() moves the
// channel, calls step and update, and hands one PeriodRecord to the caller.
// The call order is fixed, so a run through the loop is bit-identical to
// the same select/step/update calls written out by hand.
//
// A violation is judged with violates() on PeriodRecord::expected: the
// ground truth of the policy the agent chose, with no slack.

#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/edgebol.hpp"
#include "core/generic_bol.hpp"
#include "env/testbed.hpp"

namespace edgebol::core {

/// The one violation rule: the exact negation of the oracle's feasibility
/// test, `delay_s <= d_max_s && map >= map_min`. No slack, and a NaN KPI (a
/// lost sample) reads as a violation.
inline bool violates(const ConstraintSpec& cs, const env::Measurement& m) {
  return !(m.delay_s <= cs.d_max_s && m.map >= cs.map_min);
}

/// One period as the loop ran it. `D` is what the agent's select() returns.
template <typename D>
struct PeriodRecord {
  int period = 0;  // 0-based within one run_periods call
  env::Context context{};
  D decision{};
  env::ControlPolicy policy{};     // the policy handed to step()
  env::Measurement measurement{};  // the noisy KPIs the agent learned from
  /// The chosen policy's noise-free outcome at the period's channel state,
  /// taken before step(); empty where the environment has none. Under fault
  /// injection it is still the chosen policy's nominal outcome: it excludes
  /// injected environment events and lost A1 deliveries. It therefore shows
  /// whether corrupted feedback led the learner to an unsafe choice, not
  /// the fault's own effect on the period.
  std::optional<env::Measurement> expected;
};

namespace period_loop {

// The grid index a decision names: EdgeBol's Decision, the engine's
// decision, or a bare index (the baselines).
inline std::size_t grid_index(const Decision& d) { return d.policy_index; }
inline std::size_t grid_index(const GenericDecision& d) { return d.index; }
inline std::size_t grid_index(std::size_t index) { return index; }

}  // namespace period_loop

/// Run `periods` periods of `agent` on `env`, calling `on_period(record)`
/// after each update. An agent that decides a point of the continuous box
/// (select() returns an env::ControlPolicy, as baselines::DdpgAgent does) is
/// updated with that policy; every other agent decides a grid index, is
/// updated with it and has its policy looked up in agent.grid().
template <typename Env, typename Agent, typename OnPeriod>
void run_periods(Env& env, Agent& agent, int periods, OnPeriod&& on_period) {
  using D = std::decay_t<decltype(agent.select(env.context()))>;
  constexpr bool kDecidesPolicy = std::is_same_v<D, env::ControlPolicy>;
  for (int t = 0; t < periods; ++t) {
    PeriodRecord<D> rec;
    rec.period = t;
    rec.context = env.context();
    rec.decision = agent.select(rec.context);
    if constexpr (kDecidesPolicy) {
      rec.policy = rec.decision;
    } else {
      rec.policy =
          agent.grid().policy(period_loop::grid_index(rec.decision));
    }
    if constexpr (requires { env.expected(rec.policy); }) {
      rec.expected = env.expected(rec.policy);
    }
    rec.measurement = env.step(rec.policy);
    if constexpr (kDecidesPolicy) {
      agent.update(rec.context, rec.policy, rec.measurement);
    } else {
      agent.update(rec.context, period_loop::grid_index(rec.decision),
                   rec.measurement);
    }
    on_period(std::as_const(rec));
  }
}

}  // namespace edgebol::core
