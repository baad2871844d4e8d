// Results of one simulation run.
#ifndef MOBISIM_SRC_CORE_SIM_RESULT_H_
#define MOBISIM_SRC_CORE_SIM_RESULT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sim_config.h"
#include "src/device/storage_device.h"
#include "src/util/stats.h"

namespace mobisim {

struct SimResult {
  std::string workload;
  std::string device;

  // Energy over the post-warm-up portion of the run, in joules, split by
  // component as in the paper's tables.
  double device_energy_j = 0.0;
  double dram_energy_j = 0.0;
  double sram_energy_j = 0.0;
  double total_energy_j() const { return device_energy_j + dram_energy_j + sram_energy_j; }

  // Response times in milliseconds, post-warm-up operations only.
  RunningStats read_response_ms;
  RunningStats write_response_ms;
  RunningStats overall_response_ms;
  // Percentile estimates over the same samples (reservoir-backed).
  ReservoirSample read_percentiles_ms;
  ReservoirSample write_percentiles_ms;

  // Post-warm-up wall-clock span in seconds.
  double duration_sec = 0.0;
  std::uint64_t record_count = 0;
  std::uint64_t warm_record_count = 0;

  // Whole-run device event counters (includes warm-up).
  DeviceCounters counters;

  // Cache behaviour (whole run).
  std::uint64_t dram_hits = 0;
  std::uint64_t dram_misses = 0;
  std::uint64_t sram_absorbed = 0;
  std::uint64_t sram_flushes = 0;

  // Flash endurance: per-segment erase-count distribution at end of run.
  double max_segment_erases = 0.0;
  double mean_segment_erases = 0.0;

  // Whole-run device time breakdown: seconds per operating mode, in the
  // device's meter order (e.g. disk: read, write, idle, sleep, spinup), and
  // a rendered one-line energy breakdown.
  std::vector<std::pair<std::string, double>> device_mode_seconds;
  std::string device_energy_breakdown;

  // Optional column groups the row carries: ColumnGroupsOf(config).
  ColumnGroups columns;

  // -- Fault injection and recovery (filled and exported only with the
  // kFault group) ----------------------------------------------------------
  std::uint64_t power_losses = 0;
  // Host write blocks acknowledged but lost to power failures.
  std::uint64_t lost_acked_writes = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t io_failures = 0;
  std::uint64_t transient_errors = 0;
  double recovery_sec = 0.0;
  double recovery_energy_j = 0.0;
  std::uint64_t remapped_blocks = 0;
  std::uint64_t bad_segments = 0;
  // Usable fraction of physical flash capacity at end of run (1.0 when the
  // device does not model capacity, e.g. disks).
  double usable_capacity_fraction = 1.0;
  // (seconds, usable fraction) per capacity-losing event.
  std::vector<std::pair<double, double>> capacity_timeline;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_CORE_SIM_RESULT_H_
