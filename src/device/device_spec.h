// Parameter blocks describing storage devices and memory chips.
//
// Two sets of numbers exist for most devices, exactly as in the paper: the
// "measured" set derived from the OmniBook micro-benchmarks (Table 1) and the
// "datasheet" set from manufacturer specifications (Table 2).  The catalog
// (device_catalog.h) provides both.
#ifndef MOBISIM_SRC_DEVICE_DEVICE_SPEC_H_
#define MOBISIM_SRC_DEVICE_DEVICE_SPEC_H_

#include <cmath>
#include <cstdint>
#include <string>

namespace mobisim {

enum class DeviceKind : std::uint8_t {
  kMagneticDisk = 0,
  kFlashDisk = 1,   // block-interface flash disk emulator (SunDisk SDP)
  kFlashCard = 2,   // byte-interface flash memory card (Intel Series 2)
  kNandSsd = 3,     // parameterized multi-channel NAND SSD (Olivier et al.)
};

const char* DeviceKindName(DeviceKind kind);

// Channel/die/plane topology and raw NAND cell timings for kNandSsd devices
// (unified performance-and-power model in the spirit of Olivier/Boukhobza/
// Senn).  A parallel unit is one plane; units = channels * dies_per_channel *
// planes_per_die.  Page program/read and block erase are asymmetric cell
// operations; page transfers serialize on the owning channel's bus.
struct NandTopology {
  std::uint32_t channels = 0;        // 0 marks a non-NAND spec
  std::uint32_t dies_per_channel = 1;
  std::uint32_t planes_per_die = 1;
  std::uint32_t page_bytes = 2048;
  std::uint32_t pages_per_block = 64;  // erase block = page_bytes * pages_per_block
  double read_page_us = 25.0;     // cell-to-register read (tR)
  double program_page_us = 200.0; // register-to-cell program (tPROG)
  double erase_block_ms = 1.5;    // whole-block erase (tBERS)
  double channel_mbps = 40.0;     // per-channel bus bandwidth, Mbytes/s

  std::uint32_t units() const {
    return channels * dies_per_channel * planes_per_die;
  }
  std::uint32_t block_bytes() const { return page_bytes * pages_per_block; }

  bool operator==(const NandTopology&) const = default;
};

// Cylinder/head/sector layout and positioning costs of a magnetic disk, read
// only by its geometry timing (MagneticDisk; DESIGN.md §18): LBAs map to
// cylinder/head/sector, seeks follow an a + b*sqrt(d) + c*d curve over
// cylinder distance, and rotational latency follows the platter's position.
struct DiskGeometry {
  std::uint32_t cylinders = 0;  // 0 marks a spec with no geometry
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
  double SeekMs(std::uint32_t distance_cylinders) const {
    if (distance_cylinders == 0) {
      return 0.0;
    }
    const auto d = static_cast<double>(distance_cylinders);
    return seek_a_ms + seek_b_ms * std::sqrt(d) + seek_c_ms * d;
  }

  bool operator==(const DiskGeometry&) const = default;
};

struct DeviceSpec {
  std::string name;
  DeviceKind kind = DeviceKind::kMagneticDisk;

  // -- Timing ---------------------------------------------------------------
  // Per-operation overhead for a random access (controller + seek +
  // rotational latency for disks, controller latency for flash).
  double read_overhead_ms = 0.0;
  double write_overhead_ms = 0.0;
  // Overhead when the access goes to the same file as the previous one (the
  // paper's no-seek assumption); disks still pay rotational latency.
  double sequential_overhead_ms = 0.0;
  // Transfer bandwidth in Kbytes/s, as seen by the host (for "measured"
  // specs this folds in DOS/MFFS software overheads).
  double read_kbps = 0.0;
  double write_kbps = 0.0;
  // Raw medium bandwidth used for device-internal traffic (flash-card
  // cleaning copies).  Zero means same as the host-visible rate.
  double internal_read_kbps = 0.0;
  double internal_write_kbps = 0.0;

  // -- Magnetic-disk spin behaviour ------------------------------------------
  double spinup_ms = 0.0;

  // -- Flash erase behaviour --------------------------------------------------
  // Erase unit: 512 bytes for the SunDisk flash disks, 64-128 Kbytes for the
  // Intel flash card.
  std::uint32_t erase_segment_bytes = 0;
  // Fixed per-segment erase time (Intel card: 1.6 s regardless of size).
  double erase_ms_per_segment = 0.0;
  // Decoupled-erasure bandwidth (SunDisk SDP5A: 150 Kbytes/s).
  double erase_kbps = 0.0;
  // Write bandwidth into pre-erased areas (SDP5A: 400 Kbytes/s).  Zero means
  // the device cannot exploit pre-erasure and `write_kbps` (which includes
  // the coupled erase) always applies.
  double pre_erased_write_kbps = 0.0;
  // Guaranteed erase cycles per unit before wear-out (10^5 for the parts the
  // paper studied; 10^6 for the Series 2+).
  std::uint32_t endurance_cycles = 100000;

  // -- Power (watts) ----------------------------------------------------------
  double read_w = 0.0;
  double write_w = 0.0;
  double erase_w = 0.0;
  double idle_w = 0.0;    // spinning but not transferring (disk); powered (flash)
  double sleep_w = 0.0;   // spun down (disk only)
  double spinup_w = 0.0;

  // -- NAND topology (kNandSsd only; nand.channels == 0 otherwise) -----------
  NandTopology nand;

  // -- Disk geometry (kMagneticDisk geometry timing; cylinders == 0: none) ---
  DiskGeometry geometry;

  bool operator==(const DeviceSpec&) const = default;
};

// DRAM buffer cache or battery-backed SRAM write buffer chip family.
struct MemorySpec {
  std::string name;
  double read_kbps = 0.0;
  double write_kbps = 0.0;
  double access_overhead_us = 0.0;
  // Power while actively transferring.
  double active_w = 0.0;
  // Background (refresh / data-retention) power per Mbyte of configured
  // capacity; DRAM pays this continuously, which is why "more DRAM" is not
  // free energy-wise (section 5.4).
  double idle_w_per_mbyte = 0.0;

  bool operator==(const MemorySpec&) const = default;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_DEVICE_SPEC_H_
