#include "oran/fleet_plane.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace edgebol::oran {

namespace {

net::MuxEndpointConfig endpoint_config(const FleetPlaneConfig& cfg,
                                       std::size_t k,
                                       net::ReadySignal* ready) {
  net::MuxEndpointConfig ec = cfg.endpoint;
  ec.name += '/';
  ec.name += std::to_string(k);
  ec.ready = ready;
  return ec;
}

net::MuxStreamConfig stream_config(const FleetPlaneConfig& cfg,
                                   std::size_t cell) {
  net::MuxStreamConfig sc = cfg.stream;
  sc.name += "/cell";
  sc.name += std::to_string(cell);
  return sc;
}

}  // namespace

// ---------------------------------------------------------------------------
// FleetRicServer

FleetRicServer::FleetRicServer(net::EventLoop* loop,
                               core::FleetEngine* engine,
                               std::size_t num_cells, FleetPlaneConfig cfg)
    : engine_(engine) {
  const std::size_t k = std::max<std::size_t>(1, cfg.num_connections);
  endpoints_.reserve(k);
  ports_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    endpoints_.push_back(
        net::MuxEndpoint::listen(loop, 0, endpoint_config(cfg, i, &ready_)));
    ports_.push_back(endpoints_.back()->local_port());
  }
  cells_.resize(num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    cells_[c].stream =
        endpoints_[c % k]->open_stream(c + 1, stream_config(cfg, c));
  }
}

FleetRicServer::~FleetRicServer() = default;

std::size_t FleetRicServer::poll_once() {
  frames_.clear();
  for (const auto& ep : endpoints_) ep->drain_all(&frames_);
  if (frames_.empty()) return 0;

  ++batch_;
  due_.clear();
  ctx_.clear();
  periods_.clear();
  feedback_.clear();

  for (const net::StreamFrame& f : frames_) {
    const std::size_t cell = static_cast<std::size_t>(f.stream_id) - 1;
    if (cell >= cells_.size()) {
      ++decode_rejects_;  // stream exists but maps to no cell (can't happen)
      continue;
    }
    const auto ind = decode<FleetIndication>(f.payload);
    // A feedback arm outside the grid is as malformed as a bad frame:
    // reject it here rather than let the grid lookup throw mid-batch.
    if (!ind ||
        (ind->has_feedback && ind->policy_index >= engine_->grid().size())) {
      ++decode_rejects_;
      continue;
    }
    CellSlot& slot = cells_[cell];
    if (slot.batch == batch_) {
      // A second frame for a cell already in this batch (a retrying peer):
      // the cell gets exactly one decision and one reply, from its first
      // frame; deciding it twice would also race two shards on one agent.
      ++duplicates_;
      continue;
    }
    if (ind->period == slot.last_period) {
      // Redelivery across a reconnect: the decision already happened —
      // answer from cache so the cell's trajectory is unaffected.
      ++duplicates_;
      if (!slot.last_reply.empty()) slot.stream->send(slot.last_reply);
      continue;
    }
    if (ind->period < slot.last_period) {
      ++stale_;
      continue;
    }
    slot.batch = batch_;
    due_.push_back(cell);
    ctx_.push_back(ind->ctx);
    periods_.push_back(ind->period);
    core::CellFeedback& fb = feedback_.emplace_back();
    fb.present = ind->has_feedback;
    if (fb.present) {
      fb.ctx = ind->prev_ctx;
      fb.policy_index = ind->policy_index;
      fb.meas = ind->meas;
    }
  }
  if (due_.empty()) return 0;

  out_.resize(due_.size());
  const auto t0 = std::chrono::steady_clock::now();
  engine_->serve_batch(due_, ctx_, feedback_, out_,
                       [this](std::size_t i) { reply(i); });
  engine_wall_ms_ += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  decisions_ += due_.size();
  return due_.size();
}

// Runs on the thread that just decided batch index i (a pool worker or the
// poll_once caller), beside other cells' replies: it writes only cell
// due_[i]'s slot. This is plane code outside the engine's allocation-free
// dispatch region (lint rule R7): send() copies the frame into the
// stream's queue, and that copy runs on the deciding thread.
void FleetRicServer::reply(std::size_t i) {
  CellSlot& slot = cells_[due_[i]];
  FleetPolicy pol;
  pol.period = periods_[i];
  pol.policy_index = out_[i].policy_index;
  pol.policy = out_[i].policy;
  encode(pol, &slot.last_reply);
  slot.last_period = periods_[i];
  slot.stream->send(slot.last_reply);
}

// ---------------------------------------------------------------------------
// FleetCellBank

FleetCellBank::FleetCellBank(net::EventLoop* loop, const std::string& host,
                             std::span<const std::uint16_t> ports,
                             std::size_t num_cells, FleetPlaneConfig cfg) {
  const std::size_t k = ports.size();
  endpoints_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    endpoints_.push_back(net::MuxEndpoint::connect(
        loop, host, ports[i], endpoint_config(cfg, i, &ready_)));
  }
  streams_.resize(num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    streams_[c] = endpoints_[c % k]->open_stream(c + 1, stream_config(cfg, c));
  }
}

FleetCellBank::~FleetCellBank() = default;

net::SendResult FleetCellBank::send_indication(std::size_t cell,
                                               const FleetIndication& ind) {
  encode(ind, &encode_buf_);
  return streams_.at(cell)->send(encode_buf_);
}

std::size_t FleetCellBank::drain_policies(
    std::vector<std::pair<std::size_t, FleetPolicy>>* out) {
  std::size_t n = 0;
  for (const auto& ep : endpoints_) {
    frames_.clear();
    ep->drain_all(&frames_);
    for (const net::StreamFrame& f : frames_) {
      const auto pol = decode<FleetPolicy>(f.payload);
      if (!pol || f.stream_id == 0 || f.stream_id > streams_.size()) {
        ++decode_rejects_;
        continue;
      }
      out->emplace_back(static_cast<std::size_t>(f.stream_id) - 1, *pol);
      ++n;
    }
  }
  return n;
}

bool FleetCellBank::all_established() const {
  for (const auto& ep : endpoints_) {
    if (!ep->established()) return false;
  }
  return true;
}

bool FleetCellBank::wait_established(int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!all_established()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

}  // namespace edgebol::oran
