// Simulation configuration: one storage organization to evaluate.
#ifndef MOBISIM_SRC_CORE_SIM_CONFIG_H_
#define MOBISIM_SRC_CORE_SIM_CONFIG_H_

#include <cstdint>

#include "src/device/device_catalog.h"
#include "src/device/device_spec.h"
#include "src/device/storage_device.h"
#include "src/fault/fault.h"
#include "src/flash/ftl_policy.h"
#include "src/flash/segment_manager.h"
#include "src/util/sim_time.h"

namespace mobisim {

// Optional column groups of an exported row (DESIGN.md §17).  A row carries
// the FTL or fault columns only when its run uses that feature, so older rows
// and spec fingerprints stay byte-identical.  ColumnGroupsOf decides (for a
// SimConfig or an ExperimentSpec); every writer asks Has().
enum class ColumnGroup : std::uint8_t { kFtl = 1, kFault = 2 };

struct ColumnGroups {
  std::uint8_t bits = 0;

  bool Has(ColumnGroup group) const { return (bits & static_cast<std::uint8_t>(group)) != 0; }
  ColumnGroups With(ColumnGroup group, bool on = true) const {
    const auto bit = static_cast<std::uint8_t>(group);
    return {static_cast<std::uint8_t>(on ? bits | bit : bits & ~bit)};
  }
  ColumnGroups operator|(ColumnGroups other) const {
    return {static_cast<std::uint8_t>(bits | other.bits)};
  }
  bool operator==(const ColumnGroups&) const = default;
};

struct SimConfig {
  DeviceSpec device;

  // DRAM buffer cache; 2 Mbytes in the paper's mac/dos runs, 0 for hp.
  MemorySpec dram = NecDramSpec();
  std::uint64_t dram_bytes = 2ull * 1024 * 1024;

  // Battery-backed SRAM write buffer; the paper gives magnetic disks a
  // 32-Kbyte buffer by default ("benefit of the doubt", section 2).
  MemorySpec sram = NecSramSpec();
  std::uint64_t sram_bytes = 0;

  // Device capacity.  With `auto_capacity` the simulator grows this so the
  // workload fits at the requested utilization, mirroring the paper's "flash
  // large relative to the trace" methodology (section 5.2).
  std::uint64_t capacity_bytes = 40ull * 1024 * 1024;
  bool auto_capacity = true;

  // Fraction of flash holding live data at simulation start (80% in the
  // paper's baseline runs).
  double flash_utilization = 0.80;
  // Spread the preloaded filler among workload blocks (see
  // LogFlashDevice::Preload).  Off by default: a real card segregates cold
  // data into fully-live segments the greedy cleaner skips; interleaving is
  // the pessimal-mixing ablation.
  bool interleave_prefill = false;

  // Disk power management: spin down after this much inactivity.
  SimTime spin_down_after_us = 5 * kUsPerSec;
  // Fixed threshold (the paper) or the adaptive policy from the paper's
  // reference [5].
  SpinDownPolicy spin_down_policy = SpinDownPolicy::kFixedThreshold;

  // Time disks over their spec's geometry (seek curve + rotational
  // position) instead of the paper's average-cost model; disks only.
  bool use_disk_geometry = false;

  // Flash-card cleaning.
  bool background_cleaning = true;
  CleaningPolicy cleaning_policy = CleaningPolicy::kGreedy;
  // Flash translation policy.  The log-structured default is the paper's
  // MFFS model; page-diff and fat-remap are FTL ablations.
  FtlPolicyKind ftl_policy = FtlPolicyKind::kLogStructured;
  // eNVy-style hot/cold separation of cleaning copies (ablation; the MFFS
  // card mixes them).
  bool separate_cleaning_segment = false;

  // Flash-disk decoupled erasure (honoured only when the spec supports it,
  // i.e. the SDP5A).
  bool flash_async_erasure = true;

  // Leading fraction of the trace used to warm the caches; statistics cover
  // the remainder (10% in the paper, section 4.2).
  double warm_fraction = 0.10;

  // Write-back DRAM caching (section 4.2 raises it as the alternative that
  // "might avoid some erasures at the cost of occasional data loss").  Dirty
  // blocks are flushed on eviction and every `cache_sync_interval_us`
  // (DOS/UNIX-style periodic sync).  Default is the paper's write-through.
  bool write_back_cache = false;
  SimTime cache_sync_interval_us = 30 * kUsPerSec;

  // Fault injection and recovery (`fault.*` config keys).  All defaults
  // model healthy hardware; the layer is then a strict no-op.
  FaultConfig fault;

  // Optional column groups to export even when unused (`export_ftl` sets
  // kFtl; a grid stamps its own).  Read them through ColumnGroupsOf.
  ColumnGroups export_columns;

  // Memberwise, so a field added later joins the comparison (and two configs
  // that differ in it count as distinct simulations) without further edits.
  bool operator==(const SimConfig&) const = default;
};

// The one rule for a run's optional column groups: export_columns, plus FTL
// off the paper's log-structured policy and fault when a mechanism can fire.
inline ColumnGroups ColumnGroupsOf(const SimConfig& config) {
  return config.export_columns |
         ColumnGroups()
             .With(ColumnGroup::kFtl, config.ftl_policy != FtlPolicyKind::kLogStructured)
             .With(ColumnGroup::kFault, config.fault.enabled());
}

// Convenience constructors for the paper's standard configurations.
// `sram_bytes` of 0 keeps the catalog default for the device class.
SimConfig MakePaperConfig(const DeviceSpec& device, std::uint64_t dram_bytes,
                          std::uint64_t sram_bytes = 32 * 1024);

}  // namespace mobisim

#endif  // MOBISIM_SRC_CORE_SIM_CONFIG_H_
