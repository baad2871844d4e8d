// Deterministic fault injection for mobisim.
//
// The paper's headline numbers — 100k-cycle flash endurance, battery-backed
// SRAM that survives power loss while DRAM does not, asynchronous erasure —
// are all failure-adjacent behaviours.  This library turns them into
// experiments: a seed-driven FaultPlan schedules power-loss events, devices
// draw transient read/write errors from a FaultInjector, and flash erase
// blocks carry sampled wear-out budgets around the datasheet endurance.
//
// Everything here is pure state driven by the per-simulation PCG32 streams
// below; with all FaultConfig knobs at their defaults no random draw is ever
// made and the whole layer is a strict no-op (existing outputs stay
// byte-identical).
#ifndef MOBISIM_SRC_FAULT_FAULT_H_
#define MOBISIM_SRC_FAULT_FAULT_H_

#include <cstdint>

#include "src/util/rng.h"
#include "src/util/sim_time.h"

namespace mobisim {

// Fixed PCG32 stream selectors so the power-loss schedule, transient errors,
// wear budgets, and factory bad blocks never share a draw sequence (adding a
// transient error must not move the next power loss).
namespace fault_streams {
constexpr std::uint64_t kPowerLoss = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kTransient = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kWearBudget = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kBadBlocks = 0x27d4eb2f165667c5ULL;
}  // namespace fault_streams

// All fault knobs, settable from config text (`fault.*` keys) and spec files.
// Defaults model perfectly healthy hardware.
struct FaultConfig {
  // Seed for every fault stream (independent of the workload seed so the same
  // trace can be replayed under different fault schedules).
  std::uint64_t seed = 1;

  // Mean interval between power-loss events (exponential inter-arrival).
  // 0 disables power loss.
  SimTime power_loss_interval_us = 0;

  // Probability that any single device read/write attempt fails transiently.
  // Failed attempts cost full time and energy but change no device state.
  double transient_error_rate = 0.0;

  // Probability that each flash erase block is bad out of the factory.
  double bad_block_rate = 0.0;

  // When true, each flash erase block gets a wear budget sampled from
  // Normal(endurance_cycles * endurance_scale, mean * endurance_spread);
  // a block whose erase count reaches its budget retires (bad-block
  // remapping relocates surviving live data and capacity degrades).
  bool wear_out = false;
  double endurance_scale = 1.0;
  double endurance_spread = 0.1;

  // Bounded retry-with-backoff for transient errors in the storage system.
  // Each retry re-pays the device operation; attempt k additionally waits
  // retry_backoff_us * 2^(k-1) of simulated time.
  std::uint32_t max_retries = 3;
  SimTime retry_backoff_us = 500;

  // True when any fault mechanism can actually fire.
  bool enabled() const {
    return power_loss_interval_us > 0 || transient_error_rate > 0.0 ||
           bad_block_rate > 0.0 || wear_out;
  }

  bool operator==(const FaultConfig&) const = default;
};

// Status of a single device I/O attempt.
enum class IoStatus {
  kOk = 0,
  kTransientError,  // retryable: media glitch, the attempt changed nothing
  kFatalError,      // not retryable (reserved; nothing emits it today)
};

// Result of a single device I/O attempt: how long the attempt occupied the
// device (retries re-pay this) and whether it succeeded.
struct IoResult {
  SimTime time_us = 0;
  IoStatus status = IoStatus::kOk;

  bool ok() const { return status == IoStatus::kOk; }
};

// Per-device source of transient errors.  One Bernoulli draw per attempted
// I/O; makes zero draws when the rate is zero so healthy devices stay
// byte-identical to builds without fault injection.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config)
      : rate_(config.transient_error_rate),
        rng_(config.seed, fault_streams::kTransient) {}

  // True when the next I/O attempt should fail transiently.
  bool NextError() {
    if (rate_ <= 0.0) {
      return false;
    }
    return rng_.Chance(rate_);
  }

 private:
  double rate_;
  Rng rng_;
};

// Power-loss schedule: exponential inter-arrival times with the configured
// mean, drawn from a dedicated stream.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultConfig& config)
      : mean_us_(config.power_loss_interval_us),
        rng_(config.seed, fault_streams::kPowerLoss) {}

  bool power_loss_enabled() const { return mean_us_ > 0; }

  // Time until the next power loss (>= 1us so the schedule always advances).
  SimTime NextInterval() {
    const double draw = rng_.Exponential(static_cast<double>(mean_us_));
    const SimTime interval = static_cast<SimTime>(draw);
    return interval > 0 ? interval : 1;
  }

 private:
  SimTime mean_us_;
  Rng rng_;
};

// Recovery bookkeeping accumulated by the storage system across a run.
struct FaultStats {
  std::uint64_t power_losses = 0;
  // Host write blocks acknowledged but not yet durable (and not battery
  // backed) when power failed.
  std::uint64_t lost_acked_blocks = 0;
  std::uint64_t io_retries = 0;
  // Operations dropped after exhausting max_retries.
  std::uint64_t io_failures = 0;
  SimTime recovery_time_us = 0;
  double recovery_energy_j = 0.0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_FAULT_FAULT_H_
