// Hybrid disk + flash storage with hot/cold file placement.
//
// The paper's economics (section 1: flash at $30-50/Mbyte vs disk at
// $1-5/Mbyte) make an all-flash mobile store expensive; its conclusion asks
// how far flash's energy advantage stretches.  This module implements the
// natural middle point: a small flash card holds the hot files, the disk
// holds the rest, and files migrate between them based on an exponentially
// decayed access-frequency estimate.  Writes to flash-resident files never
// touch the disk, so it can stay spun down through hot-set activity.
//
// Placement is per file (the unit the paper's traces and seek model use).
// Migrations run off the critical path: the data movement is charged to the
// devices (keeping them busy) but not to the triggering request.
#ifndef MOBISIM_SRC_HYBRID_HYBRID_STORE_H_
#define MOBISIM_SRC_HYBRID_HYBRID_STORE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/device/device_catalog.h"
#include "src/device/log_flash_device.h"
#include "src/device/magnetic_disk.h"
#include "src/trace/trace_record.h"

namespace mobisim {

struct HybridConfig {
  DeviceSpec disk = Cu140Datasheet();
  DeviceSpec flash = IntelCardDatasheet();
  std::uint64_t flash_bytes = 4ull * 1024 * 1024;
  // Fraction of flash capacity the placement policy may fill (the rest is
  // cleaning slack).
  double flash_fill_fraction = 0.60;
  MemorySpec dram = NecDramSpec();
  std::uint64_t dram_bytes = 2ull * 1024 * 1024;
  std::uint32_t block_bytes = 1024;
  std::uint64_t disk_capacity_bytes = 40ull * 1024 * 1024;
  SimTime spin_down_after_us = 5 * kUsPerSec;
  // Heat decays by half every `half_life_sec`; a file becomes a promotion
  // candidate at `promote_heat` recent accesses and migrates when its heat
  // exceeds the coldest flash resident's by `promote_margin`.  Higher
  // thresholds curb migration churn (promotions cost a disk read + flash
  // write of the whole file).
  double half_life_sec = 120.0;
  double promote_heat = 8.0;
  double promote_margin = 2.0;
};

class HybridStore {
 public:
  explicit HybridStore(const HybridConfig& config);

  // Services one block-level operation; returns its response time (us).
  SimTime Handle(const BlockRecord& rec);
  void Finish(SimTime end);

  double disk_energy_j() const { return disk_->energy().total_joules(); }
  double flash_energy_j() const { return flash_->energy().total_joules(); }
  double dram_energy_j() const { return dram_.energy().total_joules(); }
  double total_energy_j() const {
    return disk_energy_j() + flash_energy_j() + dram_energy_j();
  }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t flash_resident_blocks() const { return flash_used_blocks_; }
  const DeviceCounters& disk_counters() const { return disk_->counters(); }
  const DeviceCounters& flash_counters() const { return flash_->counters(); }
  // Fraction of block accesses served by the flash side (post-placement).
  double flash_service_fraction() const;

 private:
  struct FileInfo {
    bool on_flash = false;
    double heat = 0.0;
    SimTime heat_updated_us = 0;
    std::uint64_t first_lba = 0;    // within the owning device's space
    std::uint64_t block_count = 0;  // observed extent (disk blocks)
    std::uint64_t flash_blocks = 0; // blocks allocated on flash when resident
    std::uint64_t home_lba = 0;     // disk-side address (stable)
  };

  // Looks up (or creates) the file and folds the record into its observed
  // extent; sets `extent_grew_` when the extent changed.
  FileInfo& GetFile(const BlockRecord& rec);
  bool extent_grew_ = false;
  void Heat(FileInfo& file, SimTime now);
  void ConsiderPromotion(std::uint32_t file_id, FileInfo& file, SimTime now);
  void Demote(std::uint32_t file_id, SimTime now);
  // Coldest flash-resident file, or ~0u if none.
  std::uint32_t ColdestOnFlash(SimTime now);

  HybridConfig config_;
  BufferCache dram_;
  std::unique_ptr<MagneticDisk> disk_;
  std::unique_ptr<LogFlashDevice> flash_;

  // Flash logical-address allocator: first-fit over free ranges.
  std::uint64_t AllocateFlash(std::uint64_t count);  // returns lba or kNoLba
  void FreeFlash(std::uint64_t lba, std::uint64_t count);
  static constexpr std::uint64_t kNoLba = ~std::uint64_t{0};

  std::unordered_map<std::uint32_t, FileInfo> files_;
  std::uint64_t flash_capacity_blocks_;
  std::uint64_t flash_used_blocks_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flash_free_;  // (lba, count)
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t flash_accesses_ = 0;
  std::uint64_t disk_accesses_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_HYBRID_HYBRID_STORE_H_
