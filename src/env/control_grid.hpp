// The discretized control space X = H x A x Gamma x M.
//
// The paper uses 11 levels per dimension, |X| = 11^4 = 14,641 candidate
// policies. The grid also produces, for a given context, the candidate
// feature matrix the GP layer scores every time period, and designates the
// initial safe set S0: the maximum-performance corner (full resolution, full
// airtime, full GPU speed, max MCS) that minimizes delay and maximizes mAP
// at the highest power cost (§5, Practical Issues).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "env/context.hpp"
#include "env/policy.hpp"
#include "linalg/matrix.hpp"

namespace edgebol::env {

struct GridSpec {
  std::size_t levels_per_dim = 11;
  double resolution_min = 0.25;  // the paper sweeps 25%..100%
  double resolution_max = 1.0;
  double airtime_min = 0.10;     // a slice with zero airtime has no service
  double airtime_max = 1.0;
  double gpu_speed_min = 0.0;    // gamma = 0 is the 100 W power limit
  double gpu_speed_max = 1.0;
  int mcs_min = 0;
  int mcs_max = ran::kMaxUlMcs;
};

class ControlGrid {
 public:
  explicit ControlGrid(GridSpec spec = {});

  std::size_t size() const { return policies_.size(); }
  const ControlPolicy& policy(std::size_t index) const;
  const std::vector<ControlPolicy>& policies() const { return policies_; }
  const GridSpec& spec() const { return spec_; }

  /// Index of the policy nearest (in normalized feature space) to `p`.
  std::size_t nearest_index(const ControlPolicy& p) const;

  /// Index of the maximum-performance corner used as the initial safe set.
  std::size_t max_performance_index() const;

  /// The axis-aligned grid neighbours of every policy (one level up or
  /// down in exactly one dimension; 4-8 each), precomputed once at
  /// construction in CSR layout for SafeOpt-style expander sets: neighbors
  /// of i are adjacency()[adjacency_offsets()[i] .. adjacency_offsets()[i+1]).
  std::span<const std::size_t> adjacency_offsets() const {
    return adj_offsets_;
  }
  std::span<const std::size_t> adjacency() const { return adj_; }

  /// GP input vectors [context, control] for every grid policy under the
  /// given context. Order matches policy indices.
  std::vector<linalg::Vector> candidate_features(const Context& c) const;

  /// The same features packed feature-major (7 x size()) — the form the GP
  /// tracked-candidate engine consumes without per-point allocation.
  linalg::FeatureMajorPoints candidate_feature_matrix(const Context& c) const;

 private:
  GridSpec spec_;
  std::vector<ControlPolicy> policies_;
  std::vector<std::size_t> adj_offsets_;  // size() + 1 entries
  std::vector<std::size_t> adj_;          // CSR-packed neighbor lists
};

}  // namespace edgebol::env
