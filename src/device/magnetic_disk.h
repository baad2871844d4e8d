// Magnetic hard disk with spin-down power management.
//
// Models the Caviar Ultralite CU140 / HP Kittyhawk class of mobile drives:
// the disk idles (platters spinning) after each operation, spins down after
// a configurable inactivity threshold (5 s in the paper), and pays a
// spin-up delay and elevated spin-up power when the next operation arrives.
//
// Two timing models share that state machine (DESIGN.md §18):
//   - average cost, the paper's assumption (section 4.2): repeated accesses
//     to the same file need no seek, any other access pays the average
//     random-access overhead;
//   - geometry (DeviceOptions::geometry_timing), its ablation in the style
//     of Ruemmler & Wilkes' disk modelling: LBAs map to cylinder/head/sector
//     of spec.geometry, seeks follow the geometry's seek curve, rotational
//     latency follows the platter's angular position at the end of the seek,
//     and transfers pay head switches and track-to-track seeks at track
//     boundaries.
#ifndef MOBISIM_SRC_DEVICE_MAGNETIC_DISK_H_
#define MOBISIM_SRC_DEVICE_MAGNETIC_DISK_H_

#include "src/device/storage_device.h"

namespace mobisim {

class MagneticDisk : public StorageDevice {
 public:
  MagneticDisk(const DeviceSpec& spec, const DeviceOptions& options);

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

  // True if the platters would still be spinning at `now` (no state change).
  bool IsSpinningAt(SimTime now) const;
  bool IsSleepingAt(SimTime now) const override { return !IsSpinningAt(now); }

  // Current spin-down threshold (fixed, or the adaptive policy's latest).
  SimTime spin_down_threshold_us() const { return threshold_us_; }

  // Geometry timing: mechanical time (us) to service `sectors` sectors
  // starting at `sector`, with the heads at `current_cylinder` and the
  // platter at the angular position implied by `start_time`.  Exposed for
  // tests.
  SimTime MechanicalTimeUs(std::uint64_t sector, std::uint64_t sectors,
                           std::uint32_t current_cylinder, SimTime start_time) const;

 private:
  enum Mode : std::size_t { kModeRead = 0, kModeWrite, kModeIdle, kModeSleep, kModeSpinup };

  struct Chs {
    std::uint32_t cylinder = 0;
    std::uint32_t head = 0;
    std::uint32_t sector = 0;
  };
  Chs ToChs(std::uint64_t sector_index) const;

  // Accounts idle/sleep energy (including a spin-down transition) up to `t`.
  void AccountUntil(SimTime t);
  SimTime ServiceOp(SimTime now, const BlockRecord& rec, bool is_read);
  // The two timing models' service time for one operation starting at `t`.
  SimTime AverageCostUs(const BlockRecord& rec, std::uint64_t bytes, bool is_read) const;
  SimTime GeometryUs(const BlockRecord& rec, std::uint64_t bytes, SimTime t);
  // Adaptive policy: adjusts the threshold based on how long the completed
  // sleep lasted relative to the spin-up break-even time.
  void AdaptThreshold(SimTime sleep_duration_us);

  DeviceSpec spec_;
  DeviceOptions options_;
  EnergyMeter meter_;
  DeviceCounters counters_;
  FaultInjector injector_;

  SimTime accounted_until_ = 0;
  SimTime busy_until_ = 0;
  // End of the last mechanical activity; the spin-down countdown starts here.
  SimTime idle_since_ = 0;
  bool spinning_ = true;
  SimTime threshold_us_ = 0;
  SimTime slept_since_ = 0;  // when the current sleep began
  // Head position as each timing model sees it: the last file accessed
  // (average cost) or the cylinder under the heads (geometry).  A spin-up,
  // which follows every power loss, resets both.
  std::uint32_t last_file_ = ~std::uint32_t{0};
  std::uint32_t head_cylinder_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_MAGNETIC_DISK_H_
