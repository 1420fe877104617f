#include "net/chaos.hpp"

namespace edgebol::net {

namespace {

fault::FaultPlan seed_only_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  return plan;
}

}  // namespace

ChaosShim::ChaosShim(const fault::TransportFaultRates& rates,
                     std::uint64_t seed)
    : rates_(rates),
      injector_(seed_only_plan(seed)),
      reorder_rng_(seed ^ 0x0c4a05e20bULL),
      reset_fired_(rates.partitions.size(), false) {}

bool ChaosShim::partitioned(std::int64_t now_ms) const {
  if (base_ms_ < 0) return false;
  const std::int64_t t = now_ms - base_ms_;
  for (const fault::PartitionWindow& w : rates_.partitions) {
    if (t >= w.start_ms && t < w.start_ms + w.duration_ms) return true;
  }
  return false;
}

bool ChaosShim::take_reset(std::int64_t now_ms) {
  if (base_ms_ < 0) return false;
  const std::int64_t t = now_ms - base_ms_;
  for (std::size_t i = 0; i < rates_.partitions.size(); ++i) {
    const fault::PartitionWindow& w = rates_.partitions[i];
    if (!w.reset || reset_fired_[i]) continue;
    if (t >= w.start_ms && t < w.start_ms + w.duration_ms) {
      reset_fired_[i] = true;
      return true;
    }
  }
  return false;
}

std::vector<ChaosEmission> ChaosShim::on_send(const std::string& frame,
                                              std::int64_t now_ms,
                                              TransportStats* stats,
                                              std::uint64_t tag) {
  if (partitioned(now_ms)) {
    ++stats->chaos_partition_drops;
    return {};
  }

  std::vector<ChaosEmission> out;
  const fault::FrameFault fate = injector_.next_frame_fault(rates_.frames);
  switch (fate) {
    case fault::FrameFault::kDrop:
      ++stats->chaos_dropped;
      break;
    case fault::FrameFault::kDelay:
      ++stats->chaos_delayed;
      out.push_back({frame, rates_.delay_ms, tag});
      break;
    case fault::FrameFault::kDuplicate:
      ++stats->chaos_duplicated;
      out.push_back({frame, 0, tag});
      out.push_back({frame, 0, tag});
      break;
    case fault::FrameFault::kCorrupt:
      ++stats->chaos_corrupted;
      out.push_back({injector_.corrupt_frame(frame), 0, tag});
      break;
    case fault::FrameFault::kNone:
      out.push_back({frame, 0, tag});
      break;
  }

  if (held_) {
    // Release the held frame after the current one — that's the reorder.
    out.push_back(std::move(*held_));
    held_.reset();
  } else if (fate == fault::FrameFault::kNone && rates_.reorder > 0.0 &&
             reorder_rng_.bernoulli(rates_.reorder)) {
    ++stats->chaos_reordered;
    held_ = ChaosEmission{frame, 0, tag};
    out.clear();
  }
  return out;
}

}  // namespace edgebol::net
