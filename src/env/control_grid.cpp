#include "env/control_grid.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/stats.hpp"

namespace edgebol::env {

linalg::Vector Context::to_features() const {
  // Normalizers chosen so typical operating ranges land in ~[0, 1]:
  // up to ~10 users per slice, CQI in [1, 15], CQI variance up to ~25.
  return {n_users / 10.0, cqi_mean / 15.0, cqi_var / 25.0};
}

linalg::Vector ControlPolicy::to_features() const {
  return {resolution, airtime, gpu_speed,
          static_cast<double>(mcs_cap) / ran::kMaxUlMcs};
}

linalg::Vector joint_features(const Context& c, const ControlPolicy& p) {
  linalg::Vector z = c.to_features();
  const linalg::Vector x = p.to_features();
  z.insert(z.end(), x.begin(), x.end());
  return z;
}

ControlGrid::ControlGrid(GridSpec spec) : spec_(spec) {
  if (spec_.levels_per_dim < 2)
    throw std::invalid_argument("ControlGrid: need >= 2 levels per dim");
  if (spec_.resolution_min <= 0.0 ||
      spec_.resolution_max > 1.0 ||
      spec_.resolution_min > spec_.resolution_max)
    throw std::invalid_argument("ControlGrid: bad resolution range");
  if (spec_.airtime_min <= 0.0 || spec_.airtime_max > 1.0 ||
      spec_.airtime_min > spec_.airtime_max)
    throw std::invalid_argument("ControlGrid: bad airtime range");
  if (spec_.mcs_min < 0 || spec_.mcs_max > ran::kMaxUlMcs ||
      spec_.mcs_min > spec_.mcs_max)
    throw std::invalid_argument("ControlGrid: bad mcs range");

  const std::size_t k = spec_.levels_per_dim;
  const auto res = linspace(spec_.resolution_min, spec_.resolution_max, k);
  const auto air = linspace(spec_.airtime_min, spec_.airtime_max, k);
  const auto gpu = linspace(spec_.gpu_speed_min, spec_.gpu_speed_max, k);
  const auto mcs = linspace(static_cast<double>(spec_.mcs_min),
                            static_cast<double>(spec_.mcs_max), k);

  policies_.reserve(k * k * k * k);
  for (double h : res) {
    for (double a : air) {
      for (double g : gpu) {
        for (double m : mcs) {
          ControlPolicy p;
          p.resolution = h;
          p.airtime = a;
          p.gpu_speed = g;
          p.mcs_cap = static_cast<int>(std::lround(m));
          policies_.push_back(p);
        }
      }
    }
  }

  // Precompute the axis-aligned adjacency once (CSR): SafeOpt-style
  // expander scans touch every safe point's neighbors each decision period,
  // and allocating a fresh vector per point was measurable.
  adj_offsets_.reserve(policies_.size() + 1);
  adj_.reserve(policies_.size() * 8);
  adj_offsets_.push_back(0);
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    const std::size_t m = i % k;
    const std::size_t g = (i / k) % k;
    const std::size_t a = (i / (k * k)) % k;
    const std::size_t r = i / (k * k * k);
    auto encode = [&](std::size_t ri, std::size_t ai, std::size_t gi,
                      std::size_t mi) {
      return ((ri * k + ai) * k + gi) * k + mi;
    };
    auto push_axis = [&](std::size_t v, auto make) {
      if (v > 0) adj_.push_back(make(v - 1));
      if (v + 1 < k) adj_.push_back(make(v + 1));
    };
    push_axis(r, [&](std::size_t v) { return encode(v, a, g, m); });
    push_axis(a, [&](std::size_t v) { return encode(r, v, g, m); });
    push_axis(g, [&](std::size_t v) { return encode(r, a, v, m); });
    push_axis(m, [&](std::size_t v) { return encode(r, a, g, v); });
    adj_offsets_.push_back(adj_.size());
  }
}

const ControlPolicy& ControlGrid::policy(std::size_t index) const {
  if (index >= policies_.size())
    throw std::out_of_range("ControlGrid::policy");
  return policies_[index];
}

std::size_t ControlGrid::nearest_index(const ControlPolicy& p) const {
  const linalg::Vector target = p.to_features();
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    const linalg::Vector f = policies_[i].to_features();
    double d = 0.0;
    for (std::size_t j = 0; j < f.size(); ++j) {
      d += (f[j] - target[j]) * (f[j] - target[j]);
    }
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::size_t ControlGrid::max_performance_index() const {
  ControlPolicy corner;
  corner.resolution = spec_.resolution_max;
  corner.airtime = spec_.airtime_max;
  corner.gpu_speed = spec_.gpu_speed_max;
  corner.mcs_cap = spec_.mcs_max;
  return nearest_index(corner);
}

std::vector<linalg::Vector> ControlGrid::candidate_features(
    const Context& c) const {
  std::vector<linalg::Vector> out;
  out.reserve(policies_.size());
  for (const ControlPolicy& p : policies_) out.push_back(joint_features(c, p));
  return out;
}

linalg::FeatureMajorPoints ControlGrid::candidate_feature_matrix(
    const Context& c) const {
  const linalg::Vector ctx = c.to_features();
  const std::size_t cd = ctx.size();
  linalg::FeatureMajorPoints out(cd + ControlPolicy::kFeatureDims,
                                 policies_.size());
  for (std::size_t j = 0; j < policies_.size(); ++j) {
    const ControlPolicy& p = policies_[j];
    for (std::size_t k = 0; k < cd; ++k) out.at(j, k) = ctx[k];
    // Inline ControlPolicy::to_features to avoid a temporary per policy.
    out.at(j, cd + 0) = p.resolution;
    out.at(j, cd + 1) = p.airtime;
    out.at(j, cd + 2) = p.gpu_speed;
    out.at(j, cd + 3) = static_cast<double>(p.mcs_cap) / ran::kMaxUlMcs;
  }
  return out;
}

}  // namespace edgebol::env
