#include "src/core/simulator.h"

#include <algorithm>

#include "src/fault/fault.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/check.h"

namespace mobisim {

SimConfig MakePaperConfig(const DeviceSpec& device, std::uint64_t dram_bytes,
                          std::uint64_t sram_bytes) {
  SimConfig config;
  config.device = device;
  config.dram_bytes = dram_bytes;
  // The paper couples SRAM write buffers with magnetic disks by default;
  // flash runs without one (section 5.1 notes this as future work).
  config.sram_bytes = device.kind == DeviceKind::kMagneticDisk ? sram_bytes : 0;
  return config;
}

SimResult RunSimulation(const TraceView& trace, const SimConfig& config) {
  MOBISIM_CHECK(trace.size() > 0);
  MOBISIM_CHECK(config.warm_fraction >= 0.0 && config.warm_fraction < 1.0);

  StorageSystem system(config, trace.total_blocks(), trace.block_bytes());

  SimResult result;
  result.workload = trace.name();
  result.device = config.device.name;
  result.record_count = trace.size();
  result.warm_record_count = static_cast<std::uint64_t>(
      config.warm_fraction * static_cast<double>(trace.size()));

  double warm_device_j = 0.0;
  double warm_dram_j = 0.0;
  double warm_sram_j = 0.0;

  // The per-record loop walks the view's columns directly: no struct
  // assembly beyond the BlockRecord handed to StorageSystem, no indirection
  // through a vector of rows.
  const std::size_t n = trace.size();
  const SimTime* times = trace.times();
  const std::uint8_t* ops = trace.ops();
  const std::uint64_t* lbas = trace.lbas();
  const std::uint32_t* counts = trace.counts();
  const std::uint32_t* file_ids = trace.file_ids();

  SimTime post_warm_start = times[0];

  // Power-loss schedule: exponential inter-arrival times starting from the
  // trace's first timestamp.  Inert (no draws) unless configured.
  FaultPlan fault_plan(config.fault);
  SimTime next_power_loss = 0;
  if (fault_plan.power_loss_enabled()) {
    next_power_loss = times[0] + fault_plan.NextInterval();
  }

  for (std::size_t i = 0; i < n; ++i) {
    BlockRecord rec;
    rec.time_us = times[i];
    rec.op = static_cast<OpType>(ops[i]);
    rec.lba = lbas[i];
    rec.block_count = counts[i];
    rec.file_id = file_ids[i];
    if (fault_plan.power_loss_enabled()) {
      while (rec.time_us >= next_power_loss) {
        system.PowerLoss(next_power_loss);
        next_power_loss += fault_plan.NextInterval();
      }
    }
    if (i == result.warm_record_count) {
      // Snapshot energy at the warm/measure boundary; the caches keep their
      // contents ("warm start").
      system.AccountTo(rec.time_us);
      warm_device_j = system.device().energy().total_joules();
      warm_dram_j = system.dram().energy().total_joules();
      warm_sram_j = system.sram().energy().total_joules();
      post_warm_start = rec.time_us;
    }
    const SimTime response_us = system.Handle(rec);
    if (i >= result.warm_record_count && rec.op != OpType::kErase) {
      const double response_ms = MsFromUs(response_us);
      result.overall_response_ms.Add(response_ms);
      if (rec.op == OpType::kRead) {
        result.read_response_ms.Add(response_ms);
        result.read_percentiles_ms.Add(response_ms);
      } else {
        result.write_response_ms.Add(response_ms);
        result.write_percentiles_ms.Add(response_ms);
      }
    }
  }

  const SimTime end = times[n - 1];
  system.Finish(end);

  result.duration_sec = SecFromUs(std::max<SimTime>(0, end - post_warm_start));
  result.device_energy_j = system.device().energy().total_joules() - warm_device_j;
  result.dram_energy_j = system.dram().energy().total_joules() - warm_dram_j;
  result.sram_energy_j = system.sram().energy().total_joules() - warm_sram_j;

  result.counters = system.device().counters();
  const EnergyMeter& meter = system.device().energy();
  for (std::size_t m = 0; m < meter.mode_count(); ++m) {
    result.device_mode_seconds.emplace_back(meter.mode_name(m),
                                            SecFromUs(meter.mode_time_us(m)));
  }
  result.device_energy_breakdown = meter.Breakdown();
  result.dram_hits = system.dram().hits();
  result.dram_misses = system.dram().misses();
  result.sram_absorbed = system.sram().absorbed_writes();
  result.sram_flushes = system.sram().flushes();
  result.max_segment_erases = result.counters.segment_erase_stats.max();
  result.mean_segment_erases = result.counters.segment_erase_stats.mean();

  result.columns = ColumnGroupsOf(config);
  if (result.columns.Has(ColumnGroup::kFault)) {
    const FaultStats& fs = system.fault_stats();
    result.power_losses = fs.power_losses;
    result.lost_acked_writes = fs.lost_acked_blocks;
    result.io_retries = fs.io_retries;
    result.io_failures = fs.io_failures;
    result.recovery_sec = SecFromUs(fs.recovery_time_us);
    result.recovery_energy_j = fs.recovery_energy_j;
    result.transient_errors = result.counters.transient_errors;
    result.remapped_blocks = result.counters.remapped_blocks;
    result.bad_segments = result.counters.bad_segments;
    if (result.counters.physical_blocks > 0) {
      result.usable_capacity_fraction =
          static_cast<double>(result.counters.usable_blocks) /
          static_cast<double>(result.counters.physical_blocks);
    }
    for (const auto& [at_us, fraction] : system.device().capacity_events()) {
      result.capacity_timeline.emplace_back(SecFromUs(at_us), fraction);
    }
  }
  return result;
}

void ApplyWorkloadRules(const std::string& workload, SimConfig* config) {
  if (workload == "hp") {
    // The hp trace was gathered below the buffer cache; simulating one would
    // double-count locality (section 4.1).
    config->dram_bytes = 0;
  }
}

SimConfig EffectiveConfig(const SimConfig& config) {
  const DeviceKind kind = config.device.kind;
  const SimConfig defaults;
  SimConfig effective = config;
  if (kind != DeviceKind::kMagneticDisk) {
    effective.spin_down_after_us = defaults.spin_down_after_us;
    effective.spin_down_policy = defaults.spin_down_policy;
    effective.use_disk_geometry = defaults.use_disk_geometry;
  }
  if (kind == DeviceKind::kFlashCard || kind == DeviceKind::kNandSsd) {
    return effective;
  }
  effective.export_columns = ColumnGroupsOf(config);
  effective.ftl_policy = defaults.ftl_policy;
  effective.cleaning_policy = defaults.cleaning_policy;
  effective.background_cleaning = defaults.background_cleaning;
  effective.separate_cleaning_segment = defaults.separate_cleaning_segment;
  effective.interleave_prefill = defaults.interleave_prefill;
  if (kind == DeviceKind::kMagneticDisk) {
    effective.flash_utilization = defaults.flash_utilization;
    effective.auto_capacity = defaults.auto_capacity;
    effective.flash_async_erasure = defaults.flash_async_erasure;
  }
  return effective;
}

SimResult RunNamedWorkload(const std::string& workload, const SimConfig& config, double scale) {
  const TraceView view = TraceView::FromImage(LowerNamedWorkload(workload, scale));
  SimConfig adjusted = config;
  ApplyWorkloadRules(workload, &adjusted);
  return RunSimulation(view, adjusted);
}

}  // namespace mobisim
