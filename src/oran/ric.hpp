// In-process interface fabrics for the O-RAN node roles (Fig. 7).
//
// The Non-RT RIC, Near-RT RIC and E2-node/environment roles live in
// oran/ric_node.*; across processes their links are MuxTransport streams.
// Inside one process each link is a LoopbackLink: one InterfaceFabric per
// direction, so a test or the OranManagedTestbed can count, log, fault or
// partition every hop separately while the node roles run unchanged.

#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/transport.hpp"

namespace edgebol::oran {

/// Simplex in-process link direction: counts messages, keeps an optional
/// bounded log of delivered frames for inspection, and — when a
/// FaultInjector is attached — subjects every sent frame to the plan's
/// drop/delay/duplicate/corrupt schedule. Frames that survive land on the
/// local inbox read by drain()/receive() before send() returns.
class InterfaceFabric final : public net::Transport {
 public:
  explicit InterfaceFabric(std::string name, std::size_t max_log = 64);

  /// Offer one frame. What arrives, in order: frames delayed by an earlier
  /// send — a delayed frame arrives exactly one send late and never
  /// overtakes a later frame (pinned by test_oran "fabric delayed frame
  /// order") — then zero (dropped/delayed), one (clean or corrupted) or two
  /// (duplicated) copies of `frame`. Without an injector this is exactly
  /// {frame}. A partition still accepts the frame: like TCP, the sender
  /// only learns through silence.
  net::SendResult send(const std::string& frame) override;
  std::vector<std::string> drain() override;
  std::optional<std::string> receive(int timeout_ms) override;
  bool connected() const override { return !partitioned_; }
  const std::string& name() const override { return name_; }

  /// Attach/detach fault injection with the given per-frame rates.
  void enable_faults(fault::FaultInjector* injector,
                     const fault::FrameFaultRates& rates);

  /// Simulate a hard partition of this direction: while set, every offered
  /// frame is dropped (counted separately from random drops) and frames
  /// already delayed stay parked; healing the partition releases them on
  /// the next send.
  void set_partitioned(bool on) { partitioned_ = on; }
  bool partitioned() const { return partitioned_; }

  /// Run `hook` after every send(), once the surviving copies are on the
  /// inbox: the single-threaded stand-in for waking the receiving node.
  /// Exceptions from the hook propagate to the sender.
  void set_on_send(std::function<void()> hook) { on_send_ = std::move(hook); }

  std::size_t messages_carried() const { return carried_; }
  std::size_t frames_dropped() const { return dropped_; }
  std::size_t frames_delayed() const { return delayed_; }
  std::size_t frames_duplicated() const { return duplicated_; }
  std::size_t frames_corrupted() const { return corrupted_; }
  std::size_t partition_drops() const { return partition_drops_; }
  const std::vector<std::string>& frame_log() const { return log_; }

 private:
  void deliver(std::string frame);

  std::string name_;
  std::size_t max_log_;
  std::size_t carried_ = 0;
  std::size_t dropped_ = 0;
  std::size_t delayed_ = 0;
  std::size_t duplicated_ = 0;
  std::size_t corrupted_ = 0;
  std::size_t partition_drops_ = 0;
  bool partitioned_ = false;
  std::vector<std::string> log_;
  std::vector<std::string> pending_;  // delayed frames awaiting delivery
  std::vector<std::string> inbox_;
  fault::FaultInjector* injector_ = nullptr;
  fault::FrameFaultRates rates_{};
  std::function<void()> on_send_;
};

/// One in-process duplex link between two node roles: `north` is the end
/// nearer the learner (NonRT on a1/o1/svc, NearRT on e2), `south` the other.
/// Each end is a SplitTransport over the two simplex fabrics.
struct LoopbackLink {
  explicit LoopbackLink(const std::string& name);
  LoopbackLink(const LoopbackLink&) = delete;
  LoopbackLink& operator=(const LoopbackLink&) = delete;

  InterfaceFabric down;  // north -> south
  InterfaceFabric up;    // south -> north
  net::SplitTransport north;
  net::SplitTransport south;
};

}  // namespace edgebol::oran
