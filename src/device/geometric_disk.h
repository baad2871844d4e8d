// Geometry-based magnetic-disk model.
//
// The paper's simulator uses average seek and rotational costs (section 4.2
// lists this among its simplifying assumptions).  This model implements the
// detailed alternative, in the style of Ruemmler & Wilkes' disk-modelling
// work the paper draws its hp traces from: LBAs map to
// cylinder/head/sector; seeks follow an a + b*sqrt(d) + c*d curve over
// cylinder distance; rotational latency is computed from the platter's
// actual angular position at the end of the seek; transfers pay head-switch
// and track-to-track costs when they cross track boundaries.
//
// The spin-down power management and energy accounting match MagneticDisk,
// so the two models are directly comparable (bench_ablation_seek_model).
#ifndef MOBISIM_SRC_DEVICE_GEOMETRIC_DISK_H_
#define MOBISIM_SRC_DEVICE_GEOMETRIC_DISK_H_

#include "src/device/storage_device.h"

namespace mobisim {

struct DiskGeometry {
  std::uint32_t cylinders = 980;
  std::uint32_t heads = 4;
  std::uint32_t sectors_per_track = 56;
  std::uint32_t sector_bytes = 512;
  double rpm = 3600.0;
  // Seek time over a distance of d cylinders: a + b*sqrt(d) + c*d (0 for
  // d == 0).
  double seek_a_ms = 3.0;
  double seek_b_ms = 0.5;
  double seek_c_ms = 0.008;
  double head_switch_ms = 1.0;
  double controller_ms = 0.5;

  std::uint64_t total_sectors() const {
    return static_cast<std::uint64_t>(cylinders) * heads * sectors_per_track;
  }
  std::uint64_t capacity_bytes() const { return total_sectors() * sector_bytes; }
  double revolution_ms() const { return 60000.0 / rpm; }
  double SeekMs(std::uint32_t distance_cylinders) const;

  bool operator==(const DiskGeometry&) const = default;
};

// Geometry presets sized to the paper's drives.
DiskGeometry Cu140Geometry();
DiskGeometry KittyhawkGeometry();

class GeometricDisk : public StorageDevice {
 public:
  // `spec` supplies power numbers and the spin-up profile; all timing comes
  // from `geometry`.
  GeometricDisk(const DeviceSpec& spec, const DiskGeometry& geometry,
                const DeviceOptions& options);

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

  bool IsSpinningAt(SimTime now) const;
  bool IsSleepingAt(SimTime now) const override { return !IsSpinningAt(now); }
  const DiskGeometry& geometry() const { return geometry_; }

  // Mechanical time (us) to service `sectors` sectors starting at `sector`,
  // with the heads currently at `current_cylinder` and the platter at the
  // angular position implied by `start_time`.  Exposed for tests.
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

  void AccountUntil(SimTime t);
  SimTime ServiceOp(SimTime now, const BlockRecord& rec, bool is_read);

  DeviceSpec spec_;
  DiskGeometry geometry_;
  DeviceOptions options_;
  EnergyMeter meter_;
  DeviceCounters counters_;
  FaultInjector injector_;

  SimTime accounted_until_ = 0;
  SimTime busy_until_ = 0;
  SimTime idle_since_ = 0;
  bool spinning_ = true;
  std::uint32_t head_cylinder_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_GEOMETRIC_DISK_H_
