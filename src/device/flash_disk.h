// Flash disk emulator (SunDisk SDP series).
//
// Block-interface flash with 512-byte erase sectors.  The device never
// copies data internally, so its performance is independent of storage
// utilization (section 5.2).  Two write paths exist:
//   - coupled (SDP5/SDP10): every write erases in place; `write_kbps`
//     already folds the erase in (75 KB/s for the SDP5).
//   - decoupled (SDP5A): sectors invalidated by overwrites are erased in the
//     background at `erase_kbps` whenever the device is otherwise idle, and
//     writes that land entirely in pre-erased sectors run at
//     `pre_erased_write_kbps` (section 5.3).
#ifndef MOBISIM_SRC_DEVICE_FLASH_DISK_H_
#define MOBISIM_SRC_DEVICE_FLASH_DISK_H_

#include <vector>

#include "src/device/storage_device.h"

namespace mobisim {

class FlashDisk : public StorageDevice {
 public:
  FlashDisk(const DeviceSpec& spec, const DeviceOptions& options);

  // Marks the first max(utilization x capacity, trace_blocks) logical blocks
  // as containing data, leaving the rest pre-erased.  The flash disk never
  // copies, so `interleave` has nothing to spread.
  void Preload(std::uint64_t trace_blocks, double utilization, bool interleave) override;

  // Whether the SDP5A decoupled-erasure path is on: the spec advertises it
  // and DeviceOptions::asynchronous_erasure did not turn it off.
  bool asynchronous_erasure() const { return async_erase_; }

  void AdvanceTo(SimTime now) override;
  IoResult ReadOp(SimTime now, const BlockRecord& rec) override;
  IoResult WriteOp(SimTime now, const BlockRecord& rec) override;
  SimTime PowerLoss(SimTime now) override;
  void Trim(SimTime now, const BlockRecord& rec) override;
  void Finish(SimTime end) override;

  const EnergyMeter& energy() const override { return meter_; }
  const DeviceCounters& counters() const override { return counters_; }
  const DeviceSpec& spec() const override { return spec_; }
  SimTime busy_until() const override { return busy_until_; }

  std::uint64_t pre_erased_bytes() const { return pre_erased_bytes_; }
  std::uint64_t dirty_bytes() const { return dirty_bytes_; }

 private:
  enum Mode : std::size_t { kModeRead = 0, kModeWrite, kModeErase, kModeIdle };

  void AccountUntil(SimTime t);
  SimTime ServiceRead(SimTime now, const BlockRecord& rec);
  SimTime ServiceWrite(SimTime now, const BlockRecord& rec);
  // Time/energy of a write attempt that fails before committing any sector.
  SimTime FailedWrite(SimTime now, const BlockRecord& rec);

  DeviceSpec spec_;
  DeviceOptions options_;
  EnergyMeter meter_;
  DeviceCounters counters_;
  FaultInjector injector_;

  bool async_erase_ = false;
  SimTime accounted_until_ = 0;
  SimTime busy_until_ = 0;
  std::uint32_t last_file_ = ~std::uint32_t{0};

  std::vector<bool> mapped_;          // per-LBA: contains live data
  std::uint64_t live_bytes_ = 0;
  std::uint64_t pre_erased_bytes_ = 0;  // erased, ready for fast writes
  std::uint64_t dirty_bytes_ = 0;       // invalidated, awaiting erasure
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_FLASH_DISK_H_
