// The composed storage hierarchy: DRAM buffer cache -> battery-backed SRAM
// write buffer -> non-volatile storage device.
//
// This is the paper's system under test.  Policies implemented here:
//   - write-through, write-allocate DRAM caching (section 4.2);
//   - SRAM write absorption with deferred disk spin-up: writes that fit in
//     SRAM complete without waking a sleeping disk (section 2);
//   - write-behind: while the device is awake anyway, absorbed writes drain
//     to it asynchronously so the buffer is empty when the disk next sleeps;
//   - piggyback flush: a read that wakes the device also drains the buffer,
//     off the read's critical path;
//   - read consistency: a read partially covered by buffered dirty blocks
//     forces a synchronous flush first.
#ifndef MOBISIM_SRC_CORE_STORAGE_SYSTEM_H_
#define MOBISIM_SRC_CORE_STORAGE_SYSTEM_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/cache/sram_write_buffer.h"
#include "src/core/sim_config.h"
#include "src/device/storage_device.h"
#include "src/fault/fault.h"

namespace mobisim {

class StorageSystem {
 public:
  // `trace_blocks` is the workload's logical address-space size: every
  // record's blocks lie below it.  It sizes the DRAM and SRAM indexes and
  // preloads flash devices to the configured utilization.  `block_bytes` is
  // the workload's file-system block size.
  StorageSystem(const SimConfig& config, std::uint64_t trace_blocks,
                std::uint32_t block_bytes);

  // Services one block-level operation; returns its response time (us).
  // Erases return 0 (metadata-only).
  SimTime Handle(const BlockRecord& rec);

  // Brings all components' background accounting up to `now` without I/O.
  // Inline: runs once per simulated record before the operation proper.
  void AccountTo(SimTime now) {
    dram_.AccountUntil(now);
    sram_.AccountUntil(now);
    device_->AdvanceTo(now);
    if (fault_on_) {
      while (!pending_.empty() && pending_.front().completion_us <= now) {
        pending_.pop_front();
      }
    }
    if (config_.write_back_cache && now >= next_cache_sync_us_) {
      SyncDirtyCache(now);
      next_cache_sync_us_ = now + config_.cache_sync_interval_us;
    }
  }

  // Cuts power at `now` and reboots.  Battery-backed SRAM keeps its
  // contents (in-flight SRAM flushes are pulled back into the buffer);
  // volatile DRAM is cleared and its dirty write-back data — plus any other
  // acknowledged-but-not-yet-durable device writes — is counted lost.
  // Returns the device's recovery time; fault_stats() accumulates the
  // damage.  Only meaningful when config.fault enables power loss.
  SimTime PowerLoss(SimTime now);

  const FaultStats& fault_stats() const { return fault_stats_; }

  // Closes all energy accounting at `end` (extended to cover in-flight work).
  void Finish(SimTime end);

  StorageDevice& device() { return *device_; }
  const StorageDevice& device() const { return *device_; }
  const BufferCache& dram() const { return dram_; }
  const SramWriteBuffer& sram() const { return sram_; }

  // Total energy drawn so far across device + DRAM + SRAM (used for warm-up
  // snapshots).
  double TotalEnergyJoules() const;

 private:
  // Who issued a device write; decides its fate when power fails mid-flight.
  enum class WriteSource : std::uint8_t {
    kHost,       // synchronous host write (bypassed SRAM)
    kSramFlush,  // flush of battery-backed SRAM contents
    kCacheSync,  // write-back DRAM sync / dirty eviction
  };
  // A device write issued but not yet complete.  With fault injection on,
  // the host sees writes acknowledged at issue time, so anything still here
  // when power fails was acknowledged but is not durable.
  struct PendingWrite {
    SimTime completion_us = 0;
    std::uint64_t lba = 0;
    std::uint32_t count = 0;
    WriteSource source = WriteSource::kHost;
  };

  SimTime HandleRead(const BlockRecord& rec);
  SimTime HandleWrite(const BlockRecord& rec);
  void HandleErase(const BlockRecord& rec);

  // Device I/O with bounded retry-with-backoff for injected transient
  // errors.  Plain passthrough when fault injection is off.  Returns the
  // total elapsed time (attempts + backoff).
  SimTime DeviceRead(SimTime now, const BlockRecord& rec);
  SimTime DeviceWrite(SimTime now, const BlockRecord& rec, WriteSource source);

  // Writes all buffered SRAM ranges to the device starting at `now`;
  // returns the completion time.
  SimTime DrainSramTo(SimTime now);
  // Write-back mode: flushes the cache's dirty blocks to the device (off the
  // critical path) and writes back a list of evicted dirty blocks.
  void SyncDirtyCache(SimTime now);
  void WriteBackEvicted(SimTime now, const std::vector<std::uint64_t>& blocks);

  SimConfig config_;
  std::uint32_t block_bytes_;
  std::unique_ptr<StorageDevice> device_;
  BufferCache dram_;
  SramWriteBuffer sram_;
  SimTime next_cache_sync_us_ = 0;

  // Fault state (inert when config.fault is all-default).
  bool fault_on_ = false;
  FaultStats fault_stats_;
  // Completion times are monotone in issue order (one serializing device),
  // so durable entries are pruned from the front.
  std::deque<PendingWrite> pending_;

  // Per-call scratch for dirty-eviction victims, kept as a member so the hot
  // read/write paths do not allocate; cleared before each use.
  std::vector<std::uint64_t> evicted_scratch_;
  // Per-call scratch for the ranges DrainSramTo and SyncDirtyCache write out
  // (neither calls the other), refilled by each drain.
  std::vector<BlockRange> ranges_scratch_;
};

// Capacity (bytes) a device needs so `trace_bytes` of live data fits at
// `utilization`, rounded up to whole erase segments with cleaning slack.
std::uint64_t RequiredCapacityBytes(std::uint64_t trace_bytes, double utilization,
                                    std::uint32_t segment_bytes);

}  // namespace mobisim

#endif  // MOBISIM_SRC_CORE_STORAGE_SYSTEM_H_
