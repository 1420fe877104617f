// Pinned bits of the tracked GP cache. Scripted sequences of adds,
// evictions under both policies and re-tracks (rebuilds) run on
// GpRegressor; after every step an FNV-1a digest absorbs the tracked mean
// and variance, and the final digests must equal golden values. Two EdgeBol
// trajectories are pinned the same way.
//
// The other tests compare the engine with itself (across thread counts, a
// deferred pass against an eager one, one lane width against another); this
// one compares it with a recorded run, so a change that moves every path's
// bits together fails here. The kernel's own exp is strict IEEE and the
// same at every -O level, width and sanitizer preset, but a chunk's odd
// last point and an out-of-range lane call libm's scalar exp: the goldens
// hold for a GCC 12 build against glibc 2.36, and the test skips, saying
// why, anywhere else.

#include <gnu/libc-version.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/edgebol.hpp"
#include "env/scenarios.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"

namespace edgebol {
namespace {

using linalg::Vector;

// Empty when the goldens apply to this build, else the reason they do not.
std::string why_not_pinned() {
#if defined(__clang__) || __GNUC__ != 12
  return "the goldens were recorded with GCC 12";
#else
  if (std::strcmp(gnu_get_libc_version(), "2.36") != 0) {
    return std::string("the goldens were recorded against glibc 2.36's "
                       "scalar exp (libm), which the kernel calls for a "
                       "chunk's odd last point; this is glibc ") +
           gnu_get_libc_version();
  }
  return "";
#endif
}

#define SKIP_UNLESS_PINNED()                                   \
  do {                                                         \
    const std::string why = why_not_pinned();                  \
    if (!why.empty()) GTEST_SKIP() << why;                     \
  } while (0)

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* p, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ b[i]) * 0x100000001b3ULL;
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Running digests of the two tracked arrays.
struct CacheDigests {
  Fnv mean, var;

  void absorb(const gp::GpRegressor& gp) {
    const std::size_t bytes = gp.num_tracked() * sizeof(double);
    mean.add(gp.tracked_mean_data(), bytes);
    var.add(gp.tracked_var_data(), bytes);
  }
};

struct Sequence {
  std::size_t dims = 7;
  std::size_t candidates = 0;
  bool rbf = false;
  std::size_t budget = 0;  // 0: unbounded
  std::size_t initial = 0;  // observations added before tracking
  std::size_t steps = 130;
  std::size_t threads = 1;
};

std::vector<Vector> draw_points(std::size_t n, std::size_t d, Rng& rng) {
  std::vector<Vector> out(n, Vector(d));
  for (Vector& z : out) {
    for (double& v : z) v = rng.uniform();
  }
  return out;
}

// Every step adds an observation, evicts down to the budget (kOldest in
// even steps, kMinLeverage in odd ones) and re-tracks every 9th step; the
// digests absorb the cache after each.
CacheDigests run_sequence(const Sequence& s) {
  Rng rng(9000 + s.candidates + s.budget);
  Vector ls(s.dims);
  for (std::size_t k = 0; k < s.dims; ++k) ls[k] = 0.35 + 0.1 * k;
  std::unique_ptr<gp::Kernel> kernel;
  if (s.rbf) {
    kernel = std::make_unique<gp::RbfKernel>(ls, 0.8);
  } else {
    kernel = std::make_unique<gp::Matern32Kernel>(ls, 0.9);
  }
  gp::GpRegressor gp(std::move(kernel), 2e-3);
  if (s.threads > 1) {
    gp.set_thread_pool(std::make_shared<common::ThreadPool>(s.threads));
  }
  const auto cands = std::make_shared<const linalg::FeatureMajorPoints>(
      linalg::FeatureMajorPoints::from_points(
          draw_points(s.candidates, s.dims, rng), s.dims));
  const auto add_one = [&] {
    const Vector z = draw_points(1, s.dims, rng).front();
    gp.add(z, rng.normal());
  };
  for (std::size_t i = 0; i < s.initial; ++i) add_one();
  gp.track_candidates(cands);

  CacheDigests d;
  d.absorb(gp);
  for (std::size_t step = 1; step <= s.steps; ++step) {
    add_one();
    const gp::EvictionPolicy policy = step % 2 == 0
                                          ? gp::EvictionPolicy::kOldest
                                          : gp::EvictionPolicy::kMinLeverage;
    while (s.budget > 0 && gp.num_observations() > s.budget) {
      gp.remove_observation(gp.eviction_candidate(policy));
    }
    if (step % 9 == 0) gp.track_candidates(cands);
    d.absorb(gp);
  }
  return d;
}

void expect_digests(const Sequence& s, std::uint64_t mean,
                    std::uint64_t var) {
  const CacheDigests d = run_sequence(s);
  EXPECT_EQ(hex(d.mean.h), hex(mean)) << "tracked mean";
  EXPECT_EQ(hex(d.var.h), hex(var)) << "tracked variance";
}

// The 11^4 grid's size under the paper's budget: 28 full column blocks and
// a ragged one of 305 columns, at one and two threads (the same bits).
TEST(GpGolden, Grid11Budget100) {
  SKIP_UNLESS_PINNED();
  for (const std::size_t threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_digests({.candidates = 14641, .budget = 100, .initial = 80,
                    .threads = threads},
                   0x504b6849d5f401e8, 0x68623e69fc4af3e1);
  }
}

TEST(GpGolden, Grid6RbfBudget30) {
  SKIP_UNLESS_PINNED();
  expect_digests({.candidates = 1296, .rbf = true, .budget = 30,
                  .initial = 20},
                 0xd088461096e413c3, 0x3c323f97c78c71ea);
}

TEST(GpGolden, Grid5Budget64) {
  SKIP_UNLESS_PINNED();
  expect_digests({.candidates = 625, .budget = 64, .initial = 40},
                 0x26ff4a2276ef4939, 0x337f801a830ce598);
}

// No budget: every pass is a fold alone, the cache grows to 140 rows.
TEST(GpGolden, Grid6UnboundedThreeThreads) {
  SKIP_UNLESS_PINNED();
  expect_digests({.candidates = 1296, .initial = 10, .threads = 3},
                 0x4798cde06352cbcc, 0x35b2bcd29b5e095b);
}

// EdgeBol on a budgeted 6^4 grid, the context stepping every 5 periods:
// the decisions and the measured KPIs of every period.
std::uint64_t edgebol_digest(gp::EvictionPolicy policy) {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  core::EdgeBolConfig cfg;
  cfg.num_threads = 2;
  cfg.gp_budget = 30;
  cfg.gp_eviction = policy;
  core::EdgeBol agent(env::ControlGrid(spec), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context ctx_a{2.0, 12.0, 3.0};
  const env::Context ctx_b{6.0, 9.0, 8.0};
  Fnv h;
  for (int t = 0; t < 60; ++t) {
    const env::Context& c = (t / 5) % 2 == 0 ? ctx_a : ctx_b;
    const core::Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    const std::uint64_t picks[2] = {d.policy_index, d.safe_set_size};
    const double kpis[4] = {m.delay_s, m.map, m.server_power_w,
                            m.bs_power_w};
    h.add(picks, sizeof picks);
    h.add(kpis, sizeof kpis);
  }
  return h.h;
}

TEST(GpGolden, EdgeBolTrajectories) {
  SKIP_UNLESS_PINNED();
  EXPECT_EQ(hex(edgebol_digest(gp::EvictionPolicy::kOldest)),
            hex(0x63eced7fa6713c8c))
      << "kOldest";
  EXPECT_EQ(hex(edgebol_digest(gp::EvictionPolicy::kMinLeverage)),
            hex(0x0cc00a3ed4f20359))
      << "kMinLeverage";
}

}  // namespace
}  // namespace edgebol
