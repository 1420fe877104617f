#include "oran/ric.hpp"

namespace edgebol::oran {

InterfaceFabric::InterfaceFabric(std::string name, std::size_t max_log)
    : name_(std::move(name)), max_log_(max_log) {}

void InterfaceFabric::deliver(std::string frame) {
  ++carried_;
  if (log_.size() >= max_log_) log_.erase(log_.begin());
  log_.push_back(frame);
  inbox_.push_back(std::move(frame));
}

void InterfaceFabric::enable_faults(fault::FaultInjector* injector,
                                    const fault::FrameFaultRates& rates) {
  injector_ = injector;
  rates_ = injector != nullptr ? rates : fault::FrameFaultRates{};
}

net::SendResult InterfaceFabric::send(const std::string& frame) {
  if (partitioned_) {
    // Hard partition: the offered frame vanishes; delayed frames stay
    // parked until the partition heals.
    ++partition_drops_;
  } else {
    // Frames delayed on an earlier send arrive ahead of this one (the
    // ordering guarantee documented on the declaration and pinned by test).
    std::vector<std::string> released = std::move(pending_);
    pending_.clear();
    for (std::string& f : released) deliver(std::move(f));
    const fault::FrameFault fate = injector_ != nullptr
                                       ? injector_->next_frame_fault(rates_)
                                       : fault::FrameFault::kNone;
    switch (fate) {
      case fault::FrameFault::kDrop:
        ++dropped_;
        break;
      case fault::FrameFault::kDelay:
        ++delayed_;
        pending_.push_back(frame);
        break;
      case fault::FrameFault::kDuplicate:
        ++duplicated_;
        deliver(frame);
        deliver(frame);
        break;
      case fault::FrameFault::kCorrupt:
        ++corrupted_;
        deliver(injector_->corrupt_frame(frame));
        break;
      case fault::FrameFault::kNone:
        deliver(frame);
        break;
    }
  }
  if (on_send_) on_send_();
  return net::SendResult::kQueued;
}

std::vector<std::string> InterfaceFabric::drain() {
  std::vector<std::string> out = std::move(inbox_);
  inbox_.clear();
  return out;
}

std::optional<std::string> InterfaceFabric::receive(int timeout_ms) {
  // Time-free loopback: there is nothing to wait for.
  (void)timeout_ms;
  if (inbox_.empty()) return std::nullopt;
  std::string frame = std::move(inbox_.front());
  inbox_.erase(inbox_.begin());
  return frame;
}

LoopbackLink::LoopbackLink(const std::string& name)
    : down(name + " down"),
      up(name + " up"),
      north(&down, &up, name + " north"),
      south(&up, &down, name + " south") {}

}  // namespace edgebol::oran
