// Abstract non-volatile storage device driven by block-level operations.
//
// Devices are time-aware state machines: each call carries the simulation
// time at which the request arrives, the device accounts energy for the
// interval since its last activity (idle, asleep, background-erasing, ...),
// services the request, and returns the response time.  Requests arriving
// while the device is still busy queue behind it.
#ifndef MOBISIM_SRC_DEVICE_STORAGE_DEVICE_H_
#define MOBISIM_SRC_DEVICE_STORAGE_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "src/device/device_spec.h"
#include "src/fault/fault.h"
#include "src/flash/ftl_policy.h"
#include "src/flash/segment_manager.h"
#include "src/trace/trace_record.h"
#include "src/util/energy_meter.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"

namespace mobisim {

// Cross-device event counters surfaced in simulation results.
struct DeviceCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Magnetic disk.
  std::uint64_t spinups = 0;
  // Flash.
  std::uint64_t segment_erases = 0;
  std::uint64_t blocks_copied = 0;   // cleaner copy traffic
  std::uint64_t clean_jobs = 0;
  std::uint64_t write_stalls = 0;    // writes that waited for erasure/cleaning
  SimTime stall_time_us = 0;
  // Fault injection (all stay zero when fault modeling is off).  reads/writes
  // above count *attempts*, so retried operations appear once per attempt.
  std::uint64_t transient_errors = 0;  // injected read/write attempt failures
  std::uint64_t remapped_blocks = 0;   // live blocks relocated off retiring segments
  std::uint64_t bad_segments = 0;      // erase blocks retired (factory bad + wear-out)
  std::uint64_t usable_blocks = 0;     // log-structured flash: physical slots still usable
  std::uint64_t physical_blocks = 0;   // log-structured flash: physical slots at full health
  // FTL policy activity (all zero under the log-structured default).
  std::uint64_t diff_writes = 0;       // page-diff: overwrites absorbed as diffs
  std::uint64_t diff_merges = 0;       // page-diff: chains folded on overwrite
  std::uint64_t diff_merge_reads = 0;  // page-diff: reads that folded a chain
  std::uint64_t remap_table_hits = 0;  // fat-remap: table lookups served
  std::uint64_t remap_table_wraps = 0; // fat-remap: table cursor wraparounds
  // Endurance summary (log-structured flash): per-segment erase-count
  // distribution.
  RunningStats segment_erase_stats;
};

class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  // Fills the device to `utilization` before the first I/O: the first
  // `trace_blocks` LBAs (the workload's address space) plus never-accessed
  // filler; `interleave` spreads the filler among the workload blocks.  A
  // no-op for disks.
  virtual void Preload(std::uint64_t /*trace_blocks*/, double /*utilization*/,
                       bool /*interleave*/) {}

  // Progresses background activity (spin-down timers, asynchronous erasure)
  // and energy accounting up to `now` without performing I/O.
  virtual void AdvanceTo(SimTime now) = 0;

  // Services a single request *attempt* arriving at `now`.  The returned
  // time is how long the attempt occupied the device; the status reports
  // injected transient errors.  A failed attempt pays full time and energy
  // but leaves the device's logical state (flash mapping, cleaning progress)
  // untouched, so callers may retry it verbatim.  With fault injection off
  // the status is always kOk.
  virtual IoResult ReadOp(SimTime now, const BlockRecord& rec) = 0;
  virtual IoResult WriteOp(SimTime now, const BlockRecord& rec) = 0;

  // Convenience wrappers for callers that do not model retries; they ignore
  // injected errors and return just the response time.
  SimTime Read(SimTime now, const BlockRecord& rec) { return ReadOp(now, rec).time_us; }
  SimTime Write(SimTime now, const BlockRecord& rec) { return WriteOp(now, rec).time_us; }

  // Cuts power at `now`: accounts up to `now`, truncates any in-flight work,
  // and resets volatile device state (spin state, cleaning progress).
  // Returns the simulated recovery ("reboot") time the device needs before
  // servicing new requests; the base implementation models devices with no
  // recovery pass.
  virtual SimTime PowerLoss(SimTime now) {
    AdvanceTo(now);
    return 0;
  }

  // Drops the blocks of a deleted file.  Free for a disk; reclaims space on
  // flash.  Takes no simulated time (metadata operation).
  virtual void Trim(SimTime now, const BlockRecord& rec) = 0;

  // Closes energy accounting at the end of the simulation.
  virtual void Finish(SimTime end) = 0;

  virtual const EnergyMeter& energy() const = 0;
  virtual const DeviceCounters& counters() const = 0;
  virtual const DeviceSpec& spec() const = 0;
  virtual SimTime busy_until() const = 0;

  // True if the device would be powered down at `now` (no state change), so
  // a write would wake it.  Only disks sleep.
  virtual bool IsSleepingAt(SimTime /*now*/) const { return false; }

  // Usable-capacity timeline: one (time, usable fraction of physical
  // capacity) entry per capacity-losing event (factory bad blocks at time 0,
  // wear-out retirements as they happen).  Empty on a healthy device.
  virtual std::span<const std::pair<SimTime, double>> capacity_events() const { return {}; }
};

// Disk spin-down policies.  The paper fixes the threshold at 5 s; the
// adaptive policy (from Douglis, Krishnan & Marsh, "Thwarting the
// Power-Hungry Disk", which the paper cites) grows the threshold after
// spin-downs that turn out to be premature and shrinks it after long sleeps.
enum class SpinDownPolicy : std::uint8_t {
  kFixedThreshold = 0,
  kAdaptive = 1,
};

const char* SpinDownPolicyName(SpinDownPolicy policy);

// Per-device knobs that are simulation configuration rather than hardware
// capability.
struct DeviceOptions {
  std::uint64_t capacity_bytes = 40ull * 1024 * 1024;
  std::uint32_t block_bytes = 1024;
  // Magnetic disk: spin down after this much inactivity (5 s in the paper).
  SimTime spin_down_after_us = 5 * kUsPerSec;
  SpinDownPolicy spin_down_policy = SpinDownPolicy::kFixedThreshold;
  // Adaptive-policy bounds on the threshold.
  SimTime adaptive_min_us = kUsPerSec / 2;
  SimTime adaptive_max_us = 60 * kUsPerSec;
  // Magnetic disk: time each operation over spec.geometry (seek curve and
  // rotational position) instead of the paper's average costs.
  bool geometry_timing = false;
  // Log-structured flash: background cleaning keeps a segment erased ahead
  // of writes; on-demand cleans only when a write finds no free slot
  // (section 4.2).
  bool background_cleaning = true;
  // Log-structured flash victim selection (greedy lowest-utilization is what MFFS
  // uses; cost-benefit is the LFS/eNVy-style ablation).
  CleaningPolicy cleaning_policy = CleaningPolicy::kGreedy;
  // Flash translation policy.  The log-structured default reproduces the
  // paper's MFFS model; page-diff and fat-remap are the FTL ablations.
  FtlPolicyKind ftl_policy = FtlPolicyKind::kLogStructured;
  // Route cleaning copies into their own segment (eNVy-style hot/cold
  // separation) instead of mixing them with fresh writes.
  bool separate_cleaning_segment = false;
  // Flash disk: erase invalidated sectors in the background on parts that
  // support it (SDP5A); false is the synchronous baseline of section 5.3.
  bool asynchronous_erasure = true;
  // Fault injection knobs (transient errors, wear-out budgets, factory bad
  // blocks).  Defaults model healthy hardware and cost nothing.
  FaultConfig fault;
};

// Rejects malformed device configurations up front instead of letting them
// surface as inf/NaN service times deep inside a sweep.  Throws SimError
// naming the offending field (zero/negative bandwidths, zero block or erase
// sizes, inconsistent NAND topology, a geometry-timed disk without a usable
// geometry).  Every device constructor calls this, so hand-built devices get
// the same protection as CreateDevice callers.
void ValidateDeviceSpec(const DeviceSpec& spec, const DeviceOptions& options);

std::unique_ptr<StorageDevice> CreateDevice(const DeviceSpec& spec, const DeviceOptions& options);

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_STORAGE_DEVICE_H_
