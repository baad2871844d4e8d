// Write-through DRAM buffer cache.
//
// First level of the storage hierarchy (section 4.2): reads are serviced
// from here on a hit; every write goes through to the next level.  A zero
// capacity disables the cache entirely (the configuration used for the hp
// trace, which was captured below the file system's own cache).
//
// DRAM is volatile and pays a continuous refresh cost, so a bigger cache is
// not automatically better energy-wise -- that trade-off is the subject of
// the paper's section 5.4 / figure 4.
#ifndef MOBISIM_SRC_CACHE_BUFFER_CACHE_H_
#define MOBISIM_SRC_CACHE_BUFFER_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/device/device_spec.h"
#include "src/util/block_index.h"
#include "src/util/energy_meter.h"
#include "src/util/sim_time.h"

namespace mobisim {

class BufferCache {
 public:
  // `address_blocks` is the block address space the cache indexes: every
  // lba passed in must be below it.
  BufferCache(const MemorySpec& spec, std::uint64_t capacity_bytes, std::uint32_t block_bytes,
              std::uint64_t address_blocks);

  bool enabled() const { return capacity_blocks_ > 0; }
  std::uint64_t capacity_blocks() const { return capacity_blocks_; }
  std::uint64_t cached_blocks() const { return cache_.size(); }

  // True if every block of [lba, lba+count) is cached; refreshes LRU
  // positions on a hit.  Misses leave the cache untouched (the caller
  // fetches from below and then calls Insert).  Inline: probed once per
  // simulated read.
  bool ReadHit(std::uint64_t lba, std::uint32_t count) {
    if (!enabled()) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!cache_.Contains(lba + i)) {
        ++misses_;
        return false;
      }
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      cache_.TouchIfPresent(lba + i);
    }
    ++hits_;
    return true;
  }
  // Inserts blocks (write-allocate), evicting least-recently-used blocks as
  // needed.  In write-through operation victims are always clean and
  // eviction is free; in write-back operation evicted dirty blocks are
  // appended to `evicted_dirty` (if non-null) and the caller must write them
  // to the device.
  void Insert(std::uint64_t lba, std::uint32_t count,
              std::vector<std::uint64_t>* evicted_dirty = nullptr) {
    if (!enabled()) {
      return;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t block = lba + i;
      if (cache_.TouchIfPresent(block)) {
        continue;
      }
      if (cache_.size() >= capacity_blocks_) {
        bool was_dirty = false;
        const std::uint64_t victim = cache_.EvictLru(&was_dirty);
        if (was_dirty && evicted_dirty != nullptr) {
          evicted_dirty->push_back(victim);
        }
      }
      cache_.InsertFront(block);
    }
  }
  void InvalidateRange(std::uint64_t lba, std::uint32_t count);
  // Drops every cached block (power loss: DRAM is volatile).  Dirty data is
  // gone too — the caller counts it as lost.  Hit/miss counters survive.
  void Clear();

  // -- Write-back support (section 4.2: "a write-back cache might avoid
  // some erasures at the cost of occasional data loss") -------------------
  // Marks cached blocks dirty; they must already be present (Insert first).
  void MarkDirty(std::uint64_t lba, std::uint32_t count);
  std::uint64_t dirty_blocks() const { return cache_.dirty_count(); }
  // Clears all dirty flags and fills `out` (replacing its contents) with the
  // blocks coalesced into ranges sorted by LBA (the periodic sync path).
  // Blocks stay cached.
  void DrainDirty(std::vector<BlockRange>* out);

  // Time to move `bytes` through the DRAM, and the paired active energy.
  SimTime AccessTime(std::uint64_t bytes) const {
    return static_cast<SimTime>(spec_.access_overhead_us) +
           TransferTimeUs(bytes, spec_.read_kbps);
  }
  // Accounts active energy for a transfer of `bytes`.
  void NoteTransfer(std::uint64_t bytes) { meter_.Accumulate(kModeActive, AccessTime(bytes)); }
  // Accounts refresh energy up to `t`.
  void AccountUntil(SimTime t) {
    if (t <= accounted_until_ || !enabled()) {
      accounted_until_ = std::max(accounted_until_, t);
      return;
    }
    meter_.AccumulateJoules(kModeRefresh, refresh_w_ * SecFromUs(t - accounted_until_));
    accounted_until_ = t;
  }
  void Finish(SimTime end) { AccountUntil(end); }

  const EnergyMeter& energy() const { return meter_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  enum Mode : std::size_t { kModeActive = 0, kModeRefresh };

  MemorySpec spec_;
  std::uint64_t capacity_blocks_;
  std::uint32_t block_bytes_;
  EnergyMeter meter_;
  SimTime accounted_until_ = 0;
  double refresh_w_ = 0.0;

  // Index, recency order, and dirty bits in one flat structure (see
  // block_index.h); eviction order is exact LRU.
  LruBlockMap cache_;
  // DrainDirty's sort buffer, kept so the sync path does not allocate.
  std::vector<std::uint64_t> drain_scratch_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_CACHE_BUFFER_CACHE_H_
