#include "src/device/storage_device.h"

#include <cmath>

#include "src/device/flash_disk.h"
#include "src/device/log_flash_device.h"
#include "src/device/magnetic_disk.h"
#include "src/util/check.h"

namespace mobisim {

// A violated bound here names the offending field so a sweep's _error row
// points at the spec key to fix, not at arithmetic fallout three layers down.
#define MOBISIM_SPEC_FIELD(cond, field)                                       \
  do {                                                                        \
    if (!(cond)) {                                                            \
      ::mobisim::CheckFailed("device spec field '" field "' invalid: " #cond, \
                             __FILE__, __LINE__);                             \
    }                                                                         \
  } while (0)

void ValidateDeviceSpec(const DeviceSpec& spec, const DeviceOptions& options) {
  MOBISIM_SPEC_FIELD(!spec.name.empty(), "name");
  MOBISIM_SPEC_FIELD(options.block_bytes > 0, "block_bytes");
  MOBISIM_SPEC_FIELD(options.capacity_bytes > 0, "capacity_bytes");
  MOBISIM_SPEC_FIELD(std::isfinite(spec.read_kbps) && spec.read_kbps > 0.0,
                     "read_kbps");
  MOBISIM_SPEC_FIELD(std::isfinite(spec.write_kbps) && spec.write_kbps > 0.0,
                     "write_kbps");
  MOBISIM_SPEC_FIELD(
      std::isfinite(spec.internal_read_kbps) && spec.internal_read_kbps >= 0.0,
      "internal_read_kbps");
  MOBISIM_SPEC_FIELD(
      std::isfinite(spec.internal_write_kbps) && spec.internal_write_kbps >= 0.0,
      "internal_write_kbps");
  MOBISIM_SPEC_FIELD(
      std::isfinite(spec.read_overhead_ms) && spec.read_overhead_ms >= 0.0,
      "read_overhead_ms");
  MOBISIM_SPEC_FIELD(
      std::isfinite(spec.write_overhead_ms) && spec.write_overhead_ms >= 0.0,
      "write_overhead_ms");
  MOBISIM_SPEC_FIELD(std::isfinite(spec.sequential_overhead_ms) &&
                         spec.sequential_overhead_ms >= 0.0,
                     "sequential_overhead_ms");
  if (spec.kind != DeviceKind::kMagneticDisk) {
    // Every flash-class device erases in segments; a zero segment size makes
    // SegmentManager's geometry degenerate.
    MOBISIM_SPEC_FIELD(spec.erase_segment_bytes > 0, "erase_segment_bytes");
    MOBISIM_SPEC_FIELD(spec.endurance_cycles > 0, "endurance_cycles");
  }
  if (spec.kind == DeviceKind::kFlashDisk && spec.pre_erased_write_kbps > 0.0) {
    // Decoupled erasure runs the erase pass at its own rate.
    MOBISIM_SPEC_FIELD(std::isfinite(spec.erase_kbps) && spec.erase_kbps > 0.0,
                       "erase_kbps");
  }
  if (spec.kind == DeviceKind::kFlashCard) {
    MOBISIM_SPEC_FIELD(std::isfinite(spec.erase_ms_per_segment) &&
                           spec.erase_ms_per_segment > 0.0,
                       "erase_ms_per_segment");
  }
  if (spec.kind == DeviceKind::kMagneticDisk && options.geometry_timing) {
    const DiskGeometry& g = spec.geometry;
    MOBISIM_SPEC_FIELD(g.cylinders > 0, "geometry.cylinders");
    MOBISIM_SPEC_FIELD(g.heads > 0, "geometry.heads");
    MOBISIM_SPEC_FIELD(g.sectors_per_track > 0, "geometry.sectors_per_track");
    MOBISIM_SPEC_FIELD(g.sector_bytes > 0, "geometry.sector_bytes");
    MOBISIM_SPEC_FIELD(std::isfinite(g.rpm) && g.rpm > 0.0, "geometry.rpm");
  }
  if (spec.kind == DeviceKind::kNandSsd) {
    const NandTopology& n = spec.nand;
    MOBISIM_SPEC_FIELD(n.channels > 0, "nand.channels");
    MOBISIM_SPEC_FIELD(n.dies_per_channel > 0, "nand.dies");
    MOBISIM_SPEC_FIELD(n.planes_per_die > 0, "nand.planes");
    MOBISIM_SPEC_FIELD(n.page_bytes > 0, "nand.page_bytes");
    MOBISIM_SPEC_FIELD(n.pages_per_block > 0, "nand.pages_per_block");
    MOBISIM_SPEC_FIELD(std::isfinite(n.read_page_us) && n.read_page_us > 0.0,
                       "nand.read_us");
    MOBISIM_SPEC_FIELD(
        std::isfinite(n.program_page_us) && n.program_page_us > 0.0,
        "nand.program_us");
    MOBISIM_SPEC_FIELD(
        std::isfinite(n.erase_block_ms) && n.erase_block_ms > 0.0,
        "nand.erase_ms");
    MOBISIM_SPEC_FIELD(std::isfinite(n.channel_mbps) && n.channel_mbps > 0.0,
                       "nand.channel_mbps");
    // The GC erase unit IS the NAND erase block; letting them diverge would
    // silently split the timing model from the mapping model.
    MOBISIM_SPEC_FIELD(spec.erase_segment_bytes == n.block_bytes(),
                       "erase_segment_bytes");
  }
}

#undef MOBISIM_SPEC_FIELD

std::unique_ptr<StorageDevice> CreateDevice(const DeviceSpec& spec,
                                            const DeviceOptions& options) {
  switch (spec.kind) {
    case DeviceKind::kMagneticDisk:
      return std::make_unique<MagneticDisk>(spec, options);
    case DeviceKind::kFlashDisk:
      return std::make_unique<FlashDisk>(spec, options);
    case DeviceKind::kFlashCard:
    case DeviceKind::kNandSsd:
      return std::make_unique<LogFlashDevice>(spec, options);
  }
  MOBISIM_CHECK(false && "unknown device kind");
  return nullptr;
}

}  // namespace mobisim
