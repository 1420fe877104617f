// Deterministic fault injection for the closed loop.
//
// The paper's prototype runs against real hardware where KPI samples go
// missing, power readings glitch, and O-RAN hops drop or delay messages.
// This module reproduces that hostility on demand: a FaultPlan describes,
// per subsystem, how often frames are dropped/delayed/duplicated/corrupted,
// how often telemetry is blanked or spiked, and which environment events
// (GPU thermal throttling, cross-tenant load spikes, SNR blackouts) fire at
// which orchestration periods. A FaultInjector executes the plan from its
// own seeded RNG stream, so (a) a given seed always injects the same chaos,
// and (b) the testbed's and agent's random streams are untouched — a plan
// with all rates at zero leaves every consumer bit-identical to a run with
// no injector attached.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace edgebol::fault {

/// What happened to one frame offered to a faulty interface.
enum class FrameFault { kNone, kDrop, kDelay, kDuplicate, kCorrupt };

/// Per-interface frame fault probabilities (independent Bernoulli draws,
/// checked in the order drop -> delay -> duplicate -> corrupt).
struct FrameFaultRates {
  double drop = 0.0;       // frame lost
  double delay = 0.0;      // frame held back, delivered on the next send
  double duplicate = 0.0;  // frame delivered twice
  double corrupt = 0.0;    // frame payload mutated before delivery

  bool any() const {
    return drop > 0.0 || delay > 0.0 || duplicate > 0.0 || corrupt > 0.0;
  }
};

/// Telemetry (KPI sample) fault probabilities.
struct TelemetryFaultRates {
  double power_blank = 0.0;       // power reading replaced with NaN
  double power_spike = 0.0;       // power reading glitched by spike_factor
  double spike_factor = 10.0;     // multiplier applied to spiked readings
  double map_dropout = 0.0;       // mAP estimate missing (NaN)
  double delay_dropout = 0.0;     // delay sample missing (NaN)

  bool any() const {
    return power_blank > 0.0 || power_spike > 0.0 || map_dropout > 0.0 ||
           delay_dropout > 0.0;
  }
};

/// A scheduled loss-of-connectivity window on a transport link, in wall
/// milliseconds since the chaos shim was armed. While a window is open every
/// frame (heartbeats included) is dropped, so the peer-timeout machinery
/// fires naturally. With `reset` set, the shim additionally forces a local
/// disconnect at the window start — a reconnect storm, not just silence.
struct PartitionWindow {
  std::int64_t start_ms = 0;
  std::int64_t duration_ms = 0;
  bool reset = false;
};

/// Transport-level chaos: frame fates plus reordering, timed delivery delay,
/// and partition/reconnect-storm windows. Applied by net::ChaosShim on the
/// sending side of a net::MuxEndpoint connection.
struct TransportFaultRates {
  FrameFaultRates frames{};   // drop/delay/duplicate/corrupt draws
  double reorder = 0.0;       // frame held back and sent after its successor
  std::int64_t delay_ms = 20; // timed hold for kDelay fates
  std::vector<PartitionWindow> partitions{};

  bool any() const {
    return frames.any() || reorder > 0.0 || !partitions.empty();
  }
};

/// Scheduled environment disturbances, by orchestration period.
enum class EnvEventKind {
  kGpuThermalThrottle,  // magnitude scales the effective GPU speed (< 1)
  kLoadSpike,           // magnitude multiplies the BS background load (> 1)
  kSnrBlackout,         // magnitude is subtracted from every user's SNR (dB)
};

struct EnvEvent {
  EnvEventKind kind = EnvEventKind::kGpuThermalThrottle;
  int start_period = 0;
  int duration = 1;
  double magnitude = 1.0;
};

/// The full, seeded chaos schedule for one run.
struct FaultPlan {
  std::uint64_t seed = 0;
  FrameFaultRates a1{};         // A1-P policy hop
  FrameFaultRates e2{};         // E2 control/indication hop
  FrameFaultRates o1{};         // O1 reporting hop
  TelemetryFaultRates telemetry{};
  std::vector<EnvEvent> events{};
  TransportFaultRates transport{};  // socket-level chaos (MuxEndpoint only)

  bool enabled() const {
    return a1.any() || e2.any() || o1.any() || telemetry.any() ||
           !events.empty() || transport.any();
  }
};

/// Tally of everything the injector actually did.
struct FaultStats {
  std::size_t frames_dropped = 0;
  std::size_t frames_delayed = 0;
  std::size_t frames_duplicated = 0;
  std::size_t frames_corrupted = 0;
  std::size_t power_blanks = 0;
  std::size_t power_spikes = 0;
  std::size_t map_dropouts = 0;
  std::size_t delay_dropouts = 0;
  std::size_t event_periods = 0;

  std::size_t total_frame_faults() const {
    return frames_dropped + frames_delayed + frames_duplicated +
           frames_corrupted;
  }
};

/// Aggregate disturbance acting on the testbed during one period.
struct EnvPerturbation {
  double gpu_speed_scale = 1.0;
  double load_multiplier = 1.0;
  double snr_offset_db = 0.0;

  bool active() const {
    return gpu_speed_scale != 1.0 || load_multiplier != 1.0 ||
           snr_offset_db != 0.0;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// Decide the fate of one frame under the given rates; updates stats.
  FrameFault next_frame_fault(const FrameFaultRates& rates);

  /// Deterministic payload mutation: truncate, flip a byte, or splice junk,
  /// chosen from the injector's stream. Never returns the input unchanged
  /// for non-empty frames.
  std::string corrupt_frame(const std::string& frame);

  /// Telemetry tampering per the plan's rates. Values pass through
  /// untouched when the corresponding rate is zero.
  double tamper_power_w(double true_w);
  double tamper_map(double map);
  double tamper_delay_s(double delay_s);

  /// Aggregate environment disturbance scheduled for `period`. Counts a
  /// stats event-period when any event covers it.
  EnvPerturbation perturbation_at(int period);

 private:
  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace edgebol::fault
