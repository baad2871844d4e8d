#include "src/hybrid/hybrid_store.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace mobisim {

namespace {

constexpr std::uint32_t kNoFile = ~std::uint32_t{0};

BlockRecord MakeRecord(SimTime t, OpType op, std::uint64_t lba, std::uint32_t count,
                       std::uint32_t file_id) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = op;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = file_id;
  return rec;
}

}  // namespace

HybridStore::HybridStore(const HybridConfig& config)
    : config_(config),
      dram_(config.dram, config.dram_bytes, config.block_bytes,
            config.disk_capacity_bytes / config.block_bytes) {
  DeviceOptions disk_options;
  disk_options.block_bytes = config.block_bytes;
  disk_options.capacity_bytes = config.disk_capacity_bytes;
  disk_options.spin_down_after_us = config.spin_down_after_us;
  disk_ = std::make_unique<MagneticDisk>(config.disk, disk_options);

  DeviceOptions flash_options;
  flash_options.block_bytes = config.block_bytes;
  flash_options.capacity_bytes = std::max<std::uint64_t>(
      config.flash_bytes, 3ull * config.flash.erase_segment_bytes);
  flash_ = std::make_unique<LogFlashDevice>(config.flash, flash_options);

  flash_capacity_blocks_ = static_cast<std::uint64_t>(
      config.flash_fill_fraction *
      static_cast<double>(flash_options.capacity_bytes / config.block_bytes));
  MOBISIM_CHECK(flash_capacity_blocks_ > 0);
  flash_free_.emplace_back(0, flash_->segments().total_blocks());
}

std::uint64_t HybridStore::AllocateFlash(std::uint64_t count) {
  for (auto& [lba, range] : flash_free_) {
    if (range >= count) {
      const std::uint64_t result = lba;
      lba += count;
      range -= count;
      return result;
    }
  }
  return kNoLba;
}

void HybridStore::FreeFlash(std::uint64_t lba, std::uint64_t count) {
  flash_free_.emplace_back(lba, count);
}

double HybridStore::flash_service_fraction() const {
  const std::uint64_t total = flash_accesses_ + disk_accesses_;
  return total == 0 ? 0.0
                    : static_cast<double>(flash_accesses_) / static_cast<double>(total);
}

HybridStore::FileInfo& HybridStore::GetFile(const BlockRecord& rec) {
  auto it = files_.find(rec.file_id);
  if (it == files_.end()) {
    FileInfo info;
    info.home_lba = rec.lba;  // the block trace's disk address for this file
    info.first_lba = rec.lba;
    info.block_count = rec.block_count;
    it = files_.emplace(rec.file_id, info).first;
  }
  FileInfo& file = it->second;
  // Track the file's full extent as we observe it.
  const std::uint64_t end = rec.lba + rec.block_count;
  const std::uint64_t home_end = std::max(file.home_lba + file.block_count, end);
  const std::uint64_t new_home = std::min(file.home_lba, rec.lba);
  extent_grew_ = new_home != file.home_lba || home_end - new_home != file.block_count;
  file.home_lba = new_home;
  file.block_count = home_end - new_home;
  return file;
}

void HybridStore::Heat(FileInfo& file, SimTime now) {
  const double dt_sec = SecFromUs(std::max<SimTime>(0, now - file.heat_updated_us));
  file.heat = file.heat * std::exp2(-dt_sec / config_.half_life_sec) + 1.0;
  file.heat_updated_us = now;
}

std::uint32_t HybridStore::ColdestOnFlash(SimTime now) {
  std::uint32_t coldest = kNoFile;
  double coldest_heat = 0.0;
  for (auto& [id, file] : files_) {
    if (!file.on_flash) {
      continue;
    }
    const double dt_sec = SecFromUs(std::max<SimTime>(0, now - file.heat_updated_us));
    const double heat = file.heat * std::exp2(-dt_sec / config_.half_life_sec);
    if (coldest == kNoFile || heat < coldest_heat) {
      coldest = id;
      coldest_heat = heat;
    }
  }
  return coldest;
}

void HybridStore::Demote(std::uint32_t file_id, SimTime now) {
  FileInfo& file = files_.at(file_id);
  MOBISIM_DCHECK(file.on_flash);
  // Move the data back to its disk home (off the critical path).
  flash_->Read(now, MakeRecord(now, OpType::kRead, file.first_lba,
                               static_cast<std::uint32_t>(file.flash_blocks), file_id));
  disk_->Write(now, MakeRecord(now, OpType::kWrite, file.home_lba,
                               static_cast<std::uint32_t>(file.flash_blocks), file_id));
  flash_->Trim(now, MakeRecord(now, OpType::kErase, file.first_lba,
                               static_cast<std::uint32_t>(file.flash_blocks), file_id));
  FreeFlash(file.first_lba, file.flash_blocks);
  flash_used_blocks_ -= file.flash_blocks;
  file.on_flash = false;
  file.flash_blocks = 0;
  file.first_lba = file.home_lba;
  ++demotions_;
}

void HybridStore::ConsiderPromotion(std::uint32_t file_id, FileInfo& file, SimTime now) {
  if (file.on_flash || file.heat < config_.promote_heat ||
      file.block_count > flash_capacity_blocks_) {
    return;
  }
  // Make room by demoting colder residents, if that is justified.
  while (flash_used_blocks_ + file.block_count > flash_capacity_blocks_) {
    const std::uint32_t coldest = ColdestOnFlash(now);
    if (coldest == kNoFile) {
      return;
    }
    FileInfo& victim = files_.at(coldest);
    Heat(victim, now);
    victim.heat -= 1.0;  // undo the touch Heat() adds
    if (file.heat < victim.heat * config_.promote_margin) {
      return;  // not hot enough to displace residents
    }
    Demote(coldest, now);
  }
  // Copy disk -> flash off the critical path.
  const std::uint64_t flash_lba = AllocateFlash(file.block_count);
  if (flash_lba == kNoLba) {
    return;  // logical space fragmented; skip this promotion
  }
  disk_->Read(now, MakeRecord(now, OpType::kRead, file.home_lba,
                              static_cast<std::uint32_t>(file.block_count), file_id));
  flash_->Write(now, MakeRecord(now, OpType::kWrite, flash_lba,
                                static_cast<std::uint32_t>(file.block_count), file_id));
  file.on_flash = true;
  file.first_lba = flash_lba;
  file.flash_blocks = file.block_count;
  flash_used_blocks_ += file.block_count;
  ++promotions_;
}

SimTime HybridStore::Handle(const BlockRecord& rec) {
  dram_.AccountUntil(rec.time_us);
  disk_->AdvanceTo(rec.time_us);
  flash_->AdvanceTo(rec.time_us);

  if (rec.op == OpType::kErase) {
    const auto it = files_.find(rec.file_id);
    if (it != files_.end()) {
      FileInfo& file = it->second;
      if (file.on_flash) {
        flash_->Trim(rec.time_us,
                     MakeRecord(rec.time_us, OpType::kErase, file.first_lba,
                                static_cast<std::uint32_t>(file.flash_blocks), rec.file_id));
        FreeFlash(file.first_lba, file.flash_blocks);
        flash_used_blocks_ -= file.flash_blocks;
      }
      files_.erase(it);
    }
    dram_.InvalidateRange(rec.lba, rec.block_count);
    return 0;
  }

  FileInfo& file = GetFile(rec);
  if (file.on_flash && extent_grew_) {
    // The file outgrew its flash allocation; send it home before routing.
    Demote(rec.file_id, rec.time_us);
  }
  Heat(file, rec.time_us);

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * config_.block_bytes;
  if (rec.op == OpType::kRead && dram_.ReadHit(rec.lba, rec.block_count)) {
    dram_.NoteTransfer(bytes);
    ConsiderPromotion(rec.file_id, file, rec.time_us);
    return dram_.AccessTime(bytes);
  }

  // Route to the owning device, translating to its address space.
  SimTime response;
  if (file.on_flash) {
    ++flash_accesses_;
    const std::uint64_t offset = rec.lba - file.home_lba;
    const BlockRecord routed = MakeRecord(rec.time_us, rec.op, file.first_lba + offset,
                                          rec.block_count, rec.file_id);
    response = rec.op == OpType::kRead ? flash_->Read(rec.time_us, routed)
                                       : flash_->Write(rec.time_us, routed);
  } else {
    ++disk_accesses_;
    response = rec.op == OpType::kRead ? disk_->Read(rec.time_us, rec)
                                       : disk_->Write(rec.time_us, rec);
  }
  dram_.Insert(rec.lba, rec.block_count);
  dram_.NoteTransfer(bytes);
  ConsiderPromotion(rec.file_id, file, rec.time_us);
  return response;
}

void HybridStore::Finish(SimTime end) {
  end = std::max({end, disk_->busy_until(), flash_->busy_until()});
  disk_->Finish(end);
  flash_->Finish(end);
  dram_.Finish(end);
}

}  // namespace mobisim
