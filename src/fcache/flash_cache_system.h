// Flash memory as a cache for disk blocks.
//
// Implements the architecture of Marsh, Douglis & Krishnan, "Flash Memory
// File Caching for Mobile Computers" (HICSS '94), which section 6 of the
// storage-alternatives paper discusses: a flash card sits between the DRAM
// buffer cache and the magnetic disk, absorbing reads and (because flash is
// non-volatile) writes, so the disk can stay spun down much longer.
//
// Policies:
//   - reads fill the flash cache (LRU over disk blocks);
//   - writes complete in flash and are marked dirty; dirty data destages to
//     disk in batches when the dirty fraction crosses a threshold, when an
//     eviction needs a dirty victim's slot, and at shutdown;
//   - the flash side is a real LogFlashDevice card model, so cache churn pays
//     segment-cleaning costs and wears the card.
#ifndef MOBISIM_SRC_FCACHE_FLASH_CACHE_SYSTEM_H_
#define MOBISIM_SRC_FCACHE_FLASH_CACHE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/device/device_catalog.h"
#include "src/device/log_flash_device.h"
#include "src/device/magnetic_disk.h"
#include "src/trace/trace_record.h"
#include "src/util/block_index.h"

namespace mobisim {

struct FlashCacheConfig {
  DeviceSpec disk = Cu140Datasheet();
  DeviceSpec flash = IntelCardDatasheet();
  // Raw flash capacity devoted to the cache; the usable block count is
  // smaller so the card's cleaner has headroom.
  std::uint64_t flash_bytes = 4ull * 1024 * 1024;
  // Fraction of flash blocks usable for cached data.  The rest is cleaning
  // slack: an LRU cache keeps its card permanently full, so without generous
  // headroom the cleaner lives in the regime of the paper's figure 2 at 95%
  // utilization.
  double flash_usable_fraction = 0.50;
  MemorySpec dram = NecDramSpec();
  std::uint64_t dram_bytes = 2ull * 1024 * 1024;
  std::uint32_t block_bytes = 1024;
  std::uint64_t disk_capacity_bytes = 40ull * 1024 * 1024;
  SimTime spin_down_after_us = 5 * kUsPerSec;
  // Destage to disk once this fraction of cached blocks is dirty.
  double destage_threshold = 0.50;
  // Piggyback destaging (on read-miss spin-ups) moves at most this many
  // blocks per opportunity, bounding the queueing it inflicts on the rest of
  // the burst.
  std::uint32_t destage_chunk_blocks = 64;
};

class FlashCacheSystem {
 public:
  explicit FlashCacheSystem(const FlashCacheConfig& config);

  // Services one block-level operation; returns its response time (us).
  SimTime Handle(const BlockRecord& rec);
  void Finish(SimTime end);

  double disk_energy_j() const { return disk_->energy().total_joules(); }
  double flash_energy_j() const { return flash_->energy().total_joules(); }
  double dram_energy_j() const { return dram_.energy().total_joules(); }
  double total_energy_j() const {
    return disk_energy_j() + flash_energy_j() + dram_energy_j();
  }
  std::uint64_t flash_hits() const { return flash_hits_; }
  std::uint64_t flash_misses() const { return flash_misses_; }
  std::uint64_t destages() const { return destages_; }
  const DeviceCounters& disk_counters() const { return disk_->counters(); }
  const DeviceCounters& flash_counters() const { return flash_->counters(); }
  std::uint64_t cached_blocks() const { return blocks_.size(); }
  // Cached blocks newer than their disk copy.
  std::uint64_t dirty_blocks() const { return dirty_.size(); }

 private:
  SimTime HandleRead(const BlockRecord& rec);
  SimTime HandleWrite(const BlockRecord& rec);
  void HandleErase(const BlockRecord& rec);

  // True if every block of the range is in the flash cache.
  bool CachedAll(std::uint64_t lba, std::uint32_t count) const;
  // Ensures a free flash slot, evicting (and if needed destaging) LRU
  // blocks; returns the slot.
  std::uint64_t AcquireSlot(SimTime now);
  // Installs blocks into the flash cache (paying flash writes); `dirty`
  // marks them as newer than the disk copy.
  SimTime InstallRange(SimTime now, std::uint64_t lba, std::uint32_t count, bool dirty);
  // Writes the `max_blocks` lowest dirty cached blocks (the front of
  // `dirty_`) to the disk in LBA (elevator) order; they stay cached clean.
  // Returns the completion time.
  SimTime Destage(SimTime now, std::uint64_t max_blocks);
  SimTime DestageAll(SimTime now) { return Destage(now, ~std::uint64_t{0}); }

  FlashCacheConfig config_;
  BufferCache dram_;
  std::unique_ptr<LogFlashDevice> flash_;
  std::unique_ptr<MagneticDisk> disk_;

  std::uint64_t cache_capacity_blocks_;
  // Cached disk LBAs in LRU order, each with its flash slot as the payload.
  // Its dirty bits are unused: `dirty_` below is the record of dirtiness.
  LruBlockMap blocks_;
  std::vector<std::uint64_t> free_slots_;
  // Disk LBAs of the dirty cached blocks, in LBA order: the one record of
  // which cached blocks are dirty.
  std::set<std::uint64_t> dirty_;
  std::uint64_t flash_hits_ = 0;
  std::uint64_t flash_misses_ = 0;
  std::uint64_t destages_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_FCACHE_FLASH_CACHE_SYSTEM_H_
