#include "oran/fleet_plane.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace edgebol::oran {

namespace {

constexpr char kKindIndication = 'I';
constexpr char kKindPolicy = 'P';

// Fixed-layout little-endian-host binary writer/reader. Doubles are raw
// IEEE-754 bit patterns, so a value decodes to exactly the bits that were
// encoded — the property --verify-loopback's bit-identical gate rests on.
struct Writer {
  std::string* out;
  void u8(std::uint8_t v) { out->push_back(static_cast<char>(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void raw(const void* p, std::size_t n) {
    out->append(static_cast<const char*>(p), n);
  }
};

struct Reader {
  const char* p;
  std::uint8_t u8() { return static_cast<std::uint8_t>(*p++); }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::int32_t i32() { std::int32_t v; raw(&v, sizeof v); return v; }
  double f64() { double v; raw(&v, sizeof v); return v; }
  void raw(void* dst, std::size_t n) {
    std::memcpy(dst, p, n);
    p += n;
  }
};

void put_context(Writer* w, const env::Context& c) {
  w->f64(c.n_users);
  w->f64(c.cqi_mean);
  w->f64(c.cqi_var);
}

env::Context get_context(Reader* r) {
  env::Context c;
  c.n_users = r->f64();
  c.cqi_mean = r->f64();
  c.cqi_var = r->f64();
  return c;
}

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

void encode(const FleetIndication& ind, std::string* out) {
  out->clear();
  out->reserve(kFleetIndicationBytes);
  Writer w{out};
  w.u8(static_cast<std::uint8_t>(kKindIndication));
  w.i64(ind.period);
  put_context(&w, ind.ctx);
  w.u8(ind.has_feedback ? 1 : 0);
  w.u64(ind.policy_index);
  put_context(&w, ind.prev_ctx);
  w.f64(ind.meas.delay_s);
  w.f64(ind.meas.map);
  w.f64(ind.meas.server_power_w);
  w.f64(ind.meas.bs_power_w);
}

void encode(const FleetPolicy& pol, std::string* out) {
  out->clear();
  out->reserve(kFleetPolicyBytes);
  Writer w{out};
  w.u8(static_cast<std::uint8_t>(kKindPolicy));
  w.i64(pol.period);
  w.u64(pol.policy_index);
  w.f64(pol.policy.resolution);
  w.f64(pol.policy.airtime);
  w.f64(pol.policy.gpu_speed);
  w.i32(pol.policy.mcs_cap);
}

std::optional<FleetIndication> decode_fleet_indication(const std::string& f) {
  if (f.size() != kFleetIndicationBytes || f[0] != kKindIndication)
    return std::nullopt;
  Reader r{f.data()};
  r.u8();  // kind
  FleetIndication ind;
  ind.period = r.i64();
  ind.ctx = get_context(&r);
  const std::uint8_t fb = r.u8();
  if (fb > 1) return std::nullopt;
  ind.has_feedback = fb != 0;
  ind.policy_index = r.u64();
  ind.prev_ctx = get_context(&r);
  ind.meas.delay_s = r.f64();
  ind.meas.map = r.f64();
  ind.meas.server_power_w = r.f64();
  ind.meas.bs_power_w = r.f64();
  return ind;
}

std::optional<FleetPolicy> decode_fleet_policy(const std::string& f) {
  if (f.size() != kFleetPolicyBytes || f[0] != kKindPolicy)
    return std::nullopt;
  Reader r{f.data()};
  r.u8();  // kind
  FleetPolicy pol;
  pol.period = r.i64();
  pol.policy_index = r.u64();
  pol.policy.resolution = r.f64();
  pol.policy.airtime = r.f64();
  pol.policy.gpu_speed = r.f64();
  pol.policy.mcs_cap = r.i32();
  return pol;
}

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

net::MuxEndpointStats FleetRicServer::link_stats() const {
  net::MuxEndpointStats sum;
  for (const auto& ep : endpoints_) {
    const net::MuxEndpointStats s = ep->stats();
    sum.link.frames_sent += s.link.frames_sent;
    sum.link.frames_received += s.link.frames_received;
    sum.link.bytes_sent += s.link.bytes_sent;
    sum.link.bytes_received += s.link.bytes_received;
    sum.link.decode_resets += s.link.decode_resets;
    sum.link.reconnects += s.link.reconnects;
    sum.link.accepts += s.link.accepts;
    sum.writev_calls += s.writev_calls;
    sum.readv_calls += s.readv_calls;
    sum.unknown_stream_frames += s.unknown_stream_frames;
    sum.scratch_copies += s.scratch_copies;
    sum.readv_wall_ms += s.readv_wall_ms;
    sum.decode_wall_ms += s.decode_wall_ms;
  }
  return sum;
}

std::size_t FleetRicServer::poll_once() {
  frames_.clear();
  for (const auto& ep : endpoints_) ep->drain_all(&frames_);
  if (frames_.empty()) return 0;

  ++batch_;
  due_.clear();
  ctx_.clear();
  periods_.clear();
  fb_due_.clear();
  fb_ctx_.clear();
  fb_decisions_.clear();
  fb_meas_.clear();

  for (const net::StreamFrame& f : frames_) {
    const std::size_t cell = static_cast<std::size_t>(f.stream_id) - 1;
    if (cell >= cells_.size()) {
      ++decode_rejects_;  // stream exists but maps to no cell (can't happen)
      continue;
    }
    const auto ind = decode_fleet_indication(f.payload);
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
    if (ind->has_feedback) {
      fb_due_.push_back(cell);
      fb_ctx_.push_back(ind->prev_ctx);
      core::Decision d;
      d.policy_index = ind->policy_index;
      d.policy = engine_->grid().policy(ind->policy_index);
      fb_decisions_.push_back(d);
      fb_meas_.push_back(ind->meas);
    }
  }
  if (due_.empty()) return 0;

  const auto t0 = std::chrono::steady_clock::now();
  if (!fb_due_.empty()) {
    engine_->update_batch(fb_due_, fb_ctx_, fb_decisions_, fb_meas_);
  }
  out_.resize(due_.size());
  engine_->decide_batch(due_, ctx_, out_);
  engine_wall_ms_ += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

  for (std::size_t i = 0; i < due_.size(); ++i) {
    FleetPolicy pol;
    pol.period = periods_[i];
    pol.policy_index = out_[i].policy_index;
    pol.policy = out_[i].policy;
    encode(pol, &encode_buf_);
    CellSlot& slot = cells_[due_[i]];
    slot.last_period = periods_[i];
    slot.last_reply = encode_buf_;
    slot.stream->send(encode_buf_);
  }
  decisions_ += due_.size();
  return due_.size();
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
      const auto pol = decode_fleet_policy(f.payload);
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

net::MuxEndpointStats FleetCellBank::link_stats() const {
  net::MuxEndpointStats sum;
  for (const auto& ep : endpoints_) {
    const net::MuxEndpointStats s = ep->stats();
    sum.link.frames_sent += s.link.frames_sent;
    sum.link.frames_received += s.link.frames_received;
    sum.link.bytes_sent += s.link.bytes_sent;
    sum.link.bytes_received += s.link.bytes_received;
    sum.link.decode_resets += s.link.decode_resets;
    sum.link.reconnects += s.link.reconnects;
    sum.link.accepts += s.link.accepts;
    sum.writev_calls += s.writev_calls;
    sum.readv_calls += s.readv_calls;
    sum.unknown_stream_frames += s.unknown_stream_frames;
    sum.scratch_copies += s.scratch_copies;
    sum.readv_wall_ms += s.readv_wall_ms;
    sum.decode_wall_ms += s.decode_wall_ms;
  }
  return sum;
}

}  // namespace edgebol::oran
