#include "oran/oran_env.hpp"

#include <stdexcept>

namespace edgebol::oran {

namespace {

// One single pass of `node`, unless it is already mid-pass: its own bounded
// waits drain whatever arrives meanwhile.
template <typename Node>
void pump(Node& node, bool& busy) {
  if (busy) return;
  struct Clear {
    bool& flag;
    ~Clear() { flag = false; }
  } clear{busy};
  busy = true;
  node.poll_once();
}

}  // namespace

OranManagedTestbed::OranManagedTestbed(env::Testbed& testbed,
                                       NodeTimeouts timeouts)
    : testbed_(testbed),
      near_rt_(&a1_.south, &e2_.north, &o1_.south, nullptr, timeouts),
      env_(testbed, &e2_.south, &svc_.south, nullptr, timeouts),
      non_rt_(&a1_.north, &o1_.north, &svc_.north, nullptr, timeouts) {
  const auto wake_near_rt = [this] { pump(near_rt_, near_rt_busy_); };
  const auto wake_env = [this] { pump(env_, env_busy_); };
  a1_.down.set_on_send(wake_near_rt);
  e2_.up.set_on_send(wake_near_rt);
  e2_.down.set_on_send(wake_env);
  svc_.down.set_on_send(wake_env);
  if (!non_rt_.handshake())
    throw std::logic_error("OranManagedTestbed: environment sent no hello");
}

void OranManagedTestbed::enable_fault_injection(
    fault::FaultInjector* injector) {
  const fault::FaultPlan plan =
      injector != nullptr ? injector->plan() : fault::FaultPlan{};
  a1_.down.enable_faults(injector, plan.a1);
  a1_.up.enable_faults(injector, plan.a1);
  e2_.down.enable_faults(injector, plan.e2);
  e2_.up.enable_faults(injector, plan.e2);
  o1_.up.enable_faults(injector, plan.o1);
  testbed_.set_fault_injector(injector);
}

void OranManagedTestbed::set_e2_partitioned(bool on) {
  e2_.down.set_partitioned(on);
  e2_.up.set_partitioned(on);
}

env::Measurement OranManagedTestbed::step(const env::ControlPolicy& policy) {
  // Every radio policy that reaches the O-eNB is applied under a fresh E2
  // request id, so a stationary count means this period's policy never did.
  const std::size_t applied_before = env_.controls_applied();
  const env::Measurement m = non_rt_.step(policy);
  if (env_.controls_applied() == applied_before) ++policy_delivery_failures_;
  return m;
}

}  // namespace edgebol::oran
