#include "src/fcache/flash_cache_system.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

namespace {

// Sentinel file id for cache-internal traffic (destages, fills).
constexpr std::uint32_t kCacheFile = ~std::uint32_t{0} - 7;

BlockRecord MakeRecord(SimTime t, OpType op, std::uint64_t lba, std::uint32_t count) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = op;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = kCacheFile;
  return rec;
}

// The disk's block count: the address space both caches index.
std::uint64_t DiskBlocks(const FlashCacheConfig& config) {
  MOBISIM_CHECK(config.block_bytes > 0);
  return config.disk_capacity_bytes / config.block_bytes;
}

std::uint64_t FlashCapacityBytes(const FlashCacheConfig& config) {
  return std::max<std::uint64_t>(config.flash_bytes,
                                 2ull * config.flash.erase_segment_bytes + config.block_bytes);
}

}  // namespace

FlashCacheSystem::FlashCacheSystem(const FlashCacheConfig& config)
    : config_(config),
      dram_(config.dram, config.dram_bytes, config.block_bytes, DiskBlocks(config)),
      cache_capacity_blocks_(static_cast<std::uint64_t>(
          config.flash_usable_fraction *
          static_cast<double>(FlashCapacityBytes(config) / config.block_bytes))),
      blocks_(DiskBlocks(config), cache_capacity_blocks_) {
  DeviceOptions flash_options;
  flash_options.block_bytes = config.block_bytes;
  flash_options.capacity_bytes = FlashCapacityBytes(config);
  flash_ = std::make_unique<LogFlashDevice>(config.flash, flash_options);

  DeviceOptions disk_options;
  disk_options.block_bytes = config.block_bytes;
  disk_options.capacity_bytes = config.disk_capacity_bytes;
  disk_options.spin_down_after_us = config.spin_down_after_us;
  disk_ = std::make_unique<MagneticDisk>(config.disk, disk_options);

  MOBISIM_CHECK(cache_capacity_blocks_ > 0);
  free_slots_.reserve(cache_capacity_blocks_);
  // Hand out slots from the top down so pops are cheap.
  for (std::uint64_t s = cache_capacity_blocks_; s > 0; --s) {
    free_slots_.push_back(s - 1);
  }
}

bool FlashCacheSystem::CachedAll(std::uint64_t lba, std::uint32_t count) const {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!blocks_.Contains(lba + i)) {
      return false;
    }
  }
  return true;
}

SimTime FlashCacheSystem::Destage(SimTime now, std::uint64_t max_blocks) {
  MOBISIM_DCHECK(max_blocks > 0);
  if (dirty_.empty()) {
    return now;
  }
  ++destages_;
  // Coalesce the lowest dirty LBAs, up to the budget, into sequential runs.
  SimTime completion = now;
  auto it = dirty_.begin();
  std::uint64_t run_start = *it;
  std::uint32_t run_len = 1;
  auto flush_run = [&]() {
    completion = now + disk_->Write(now, MakeRecord(now, OpType::kWrite, run_start, run_len));
  };
  std::uint64_t taken = 1;
  for (++it; it != dirty_.end() && taken < max_blocks; ++it, ++taken) {
    if (*it == run_start + run_len) {
      ++run_len;
    } else {
      flush_run();
      run_start = *it;
      run_len = 1;
    }
  }
  flush_run();
  dirty_.erase(dirty_.begin(), it);
  return completion;
}

std::uint64_t FlashCacheSystem::AcquireSlot(SimTime now) {
  if (!free_slots_.empty()) {
    const std::uint64_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  MOBISIM_CHECK(blocks_.size() > 0);
  const std::uint64_t victim_lba = blocks_.LruBlock();
  if (dirty_.contains(victim_lba)) {
    // The cache is full of dirty data: destage everything in one disk
    // session rather than dribbling single blocks.
    DestageAll(now);
  }
  const std::uint64_t slot = blocks_.payload(victim_lba);
  flash_->Trim(now, MakeRecord(now, OpType::kErase, slot, 1));
  blocks_.Erase(victim_lba);
  return slot;
}

SimTime FlashCacheSystem::InstallRange(SimTime now, std::uint64_t lba, std::uint32_t count,
                                       bool dirty) {
  SimTime response = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t block = lba + i;
    std::uint64_t slot;
    if (blocks_.TouchIfPresent(block)) {
      slot = blocks_.payload(block);
    } else {
      slot = AcquireSlot(now);
      blocks_.InsertFront(block, static_cast<std::uint32_t>(slot));
    }
    if (dirty) {
      dirty_.insert(block);
    }
    response = flash_->Write(now, MakeRecord(now, OpType::kWrite, slot, 1)) ;
  }
  return response;
}

SimTime FlashCacheSystem::HandleRead(const BlockRecord& rec) {
  const SimTime now = rec.time_us;
  const std::uint64_t bytes = static_cast<std::uint64_t>(rec.block_count) * config_.block_bytes;

  if (dram_.ReadHit(rec.lba, rec.block_count)) {
    dram_.NoteTransfer(bytes);
    return dram_.AccessTime(bytes);
  }
  if (CachedAll(rec.lba, rec.block_count)) {
    ++flash_hits_;
    for (std::uint32_t i = 0; i < rec.block_count; ++i) {
      blocks_.TouchIfPresent(rec.lba + i);
    }
    // Timing: one flash read of the full size (slot scatter is irrelevant on
    // a byte-addressed card).
    const SimTime response = flash_->Read(
        now, MakeRecord(now, OpType::kRead, blocks_.payload(rec.lba), rec.block_count));
    dram_.Insert(rec.lba, rec.block_count);
    dram_.NoteTransfer(bytes);
    return response;
  }

  ++flash_misses_;
  const SimTime response = disk_->Read(now, rec);
  // Fill the flash cache off the critical path, then cache in DRAM too.
  InstallRange(now + response, rec.lba, rec.block_count, /*dirty=*/false);
  dram_.Insert(rec.lba, rec.block_count);
  dram_.NoteTransfer(bytes);
  // Piggyback: the miss spun the disk up anyway; use the session to destage
  // a bounded chunk of dirty data instead of paying dedicated spin-ups
  // later.
  if (!dirty_.empty()) {
    Destage(now + response, config_.destage_chunk_blocks);
  }
  return response;
}

SimTime FlashCacheSystem::HandleWrite(const BlockRecord& rec) {
  const SimTime now = rec.time_us;
  const std::uint64_t bytes = static_cast<std::uint64_t>(rec.block_count) * config_.block_bytes;
  dram_.Insert(rec.lba, rec.block_count);
  dram_.NoteTransfer(bytes);

  // Flash is non-volatile: the write is durable once it lands there.
  const SimTime response = InstallRange(now, rec.lba, rec.block_count, /*dirty=*/true);

  if (static_cast<double>(dirty_.size()) >
      config_.destage_threshold * static_cast<double>(cache_capacity_blocks_)) {
    // Background destage; not charged to this write.
    DestageAll(now + response);
  }
  return response;
}

void FlashCacheSystem::HandleErase(const BlockRecord& rec) {
  dram_.InvalidateRange(rec.lba, rec.block_count);
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    const std::uint64_t block = rec.lba + i;
    if (!blocks_.Contains(block)) {
      continue;
    }
    const std::uint64_t slot = blocks_.payload(block);
    dirty_.erase(block);
    flash_->Trim(rec.time_us, MakeRecord(rec.time_us, OpType::kErase, slot, 1));
    free_slots_.push_back(slot);
    blocks_.Erase(block);
  }
  disk_->Trim(rec.time_us, rec);
}

SimTime FlashCacheSystem::Handle(const BlockRecord& rec) {
  dram_.AccountUntil(rec.time_us);
  flash_->AdvanceTo(rec.time_us);
  disk_->AdvanceTo(rec.time_us);
  switch (rec.op) {
    case OpType::kRead:
      return HandleRead(rec);
    case OpType::kWrite:
      return HandleWrite(rec);
    case OpType::kErase:
      HandleErase(rec);
      return 0;
  }
  MOBISIM_CHECK(false && "unreachable");
  return 0;
}

void FlashCacheSystem::Finish(SimTime end) {
  if (!dirty_.empty()) {
    end = std::max(end, DestageAll(std::max(end, disk_->busy_until())));
  }
  end = std::max({end, disk_->busy_until(), flash_->busy_until()});
  disk_->Finish(end);
  flash_->Finish(end);
  dram_.Finish(end);
}

}  // namespace mobisim
