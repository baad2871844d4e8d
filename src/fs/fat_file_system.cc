#include "src/fs/fat_file_system.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace mobisim {

namespace {

// File id used for metadata traffic so device seek models treat FAT/dir
// traffic as its own locality domain.
constexpr std::uint32_t kMetadataFile = ~std::uint32_t{0} - 3;

}  // namespace

FatFileSystem::FatFileSystem(const FatConfig& config) : config_(config) {
  MOBISIM_CHECK(config.block_bytes >= 512);
  MOBISIM_CHECK(config.fat_copies >= 1);
  total_blocks_ = config.capacity_bytes / config.block_bytes;
  MOBISIM_CHECK(total_blocks_ > 64);

  // 16-bit FAT entries; one entry per data cluster.  Solve approximately:
  // the FAT must cover all clusters that fit after itself.
  const std::uint64_t entries_per_block = config.block_bytes / 2;
  std::uint64_t clusters = total_blocks_;  // upper bound, refined below
  fat_blocks_per_copy_ = (clusters + entries_per_block - 1) / entries_per_block;
  dir_blocks_ = (static_cast<std::uint64_t>(config.dir_entries) * config.dir_entry_bytes +
                 config.block_bytes - 1) /
                config.block_bytes;
  const std::uint64_t overhead = 1 + fat_blocks_per_copy_ * config.fat_copies + dir_blocks_;
  MOBISIM_CHECK(total_blocks_ > overhead);
  data_clusters_ = total_blocks_ - overhead;
  cluster_used_.assign(data_clusters_, false);
}

std::uint64_t FatFileSystem::free_clusters() const {
  std::uint64_t used = 0;
  for (const bool u : cluster_used_) {
    used += u ? 1 : 0;
  }
  return data_clusters_ - used;
}

std::vector<std::uint32_t> FatFileSystem::FileClusters(std::uint32_t file_id) const {
  const auto it = files_.find(file_id);
  if (it == files_.end()) {
    return {};
  }
  return it->second.clusters;
}

void FatFileSystem::EmitFatWrite(std::uint32_t cluster, SimTime t,
                                 std::vector<BlockRecord>* out) {
  const std::uint64_t entries_per_block = config_.block_bytes / 2;
  for (std::uint32_t copy = 0; copy < config_.fat_copies; ++copy) {
    const std::uint64_t lba =
        fat_begin() + copy * fat_blocks_per_copy_ + cluster / entries_per_block;
    // Dedupe within the current operation: one write per touched FAT block.
    if (std::find(pending_fat_blocks_.begin(), pending_fat_blocks_.end(), lba) !=
        pending_fat_blocks_.end()) {
      continue;
    }
    pending_fat_blocks_.push_back(lba);
    if (out != nullptr) {
      BlockRecord rec;
      rec.time_us = t;
      rec.op = OpType::kWrite;
      rec.lba = lba;
      rec.block_count = 1;
      rec.file_id = kMetadataFile;
      out->push_back(rec);
      ++stats_.fat_blocks_written;
    }
  }
}

void FatFileSystem::EmitDirWrite(const FileState& file, SimTime t,
                                 std::vector<BlockRecord>* out) {
  if (out == nullptr) {
    return;
  }
  const std::uint64_t lba =
      dir_begin() +
      static_cast<std::uint64_t>(file.dir_slot) * config_.dir_entry_bytes /
          config_.block_bytes;
  BlockRecord rec;
  rec.time_us = t;
  rec.op = OpType::kWrite;
  rec.lba = lba;
  rec.block_count = 1;
  rec.file_id = kMetadataFile;
  out->push_back(rec);
  ++stats_.dir_blocks_written;
}

bool FatFileSystem::AllocateClusters(FileState& file, std::uint64_t count, SimTime t,
                                     std::vector<BlockRecord>* out) {
  for (std::uint64_t n = 0; n < count; ++n) {
    // Next-fit scan from the rotating cursor.
    std::uint32_t chosen = ~std::uint32_t{0};
    for (std::uint64_t probe = 0; probe < data_clusters_; ++probe) {
      const std::uint32_t candidate = static_cast<std::uint32_t>(
          (next_fit_cursor_ + probe) % data_clusters_);
      if (!cluster_used_[candidate]) {
        chosen = candidate;
        break;
      }
    }
    if (chosen == ~std::uint32_t{0}) {
      return false;  // volume full
    }
    cluster_used_[chosen] = true;
    next_fit_cursor_ = static_cast<std::uint32_t>((chosen + 1) % data_clusters_);
    // Chain update: the predecessor's FAT entry now points here, and this
    // cluster's entry becomes end-of-chain.
    if (!file.clusters.empty()) {
      EmitFatWrite(file.clusters.back(), t, out);
    }
    EmitFatWrite(chosen, t, out);
    file.clusters.push_back(chosen);
    ++stats_.allocations;
  }
  return true;
}

void FatFileSystem::FreeClusters(FileState& file, SimTime t, std::vector<BlockRecord>* out) {
  for (const std::uint32_t cluster : file.clusters) {
    cluster_used_[cluster] = false;
    EmitFatWrite(cluster, t, out);
  }
  file.clusters.clear();
}

FatFileSystem::FileState& FatFileSystem::GetOrCreateFile(std::uint32_t file_id,
                                                         bool created_by_write,
                                                         std::uint64_t initial_bytes,
                                                         SimTime t,
                                                         std::vector<BlockRecord>* out) {
  const auto it = files_.find(file_id);
  if (it != files_.end()) {
    return it->second;
  }
  FileState state;
  state.dir_slot = next_dir_slot_++ % config_.dir_entries;
  auto& entry = files_.emplace(file_id, state).first->second;
  const std::uint64_t blocks =
      (std::max<std::uint64_t>(initial_bytes, 1) + config_.block_bytes - 1) /
      config_.block_bytes;
  if (created_by_write) {
    // New file: allocation traffic is visible.
    ++stats_.files_created;
    pending_fat_blocks_.clear();
    MOBISIM_CHECK(AllocateClusters(entry, blocks, t, out) && "FAT volume full");
    EmitDirWrite(entry, t, out);
  } else {
    // Pre-existing file (trace starts mid-life): allocate silently.
    MOBISIM_CHECK(AllocateClusters(entry, blocks, t, nullptr) && "FAT volume full");
  }
  return entry;
}

TraceView FatFileSystem::Lower(const Trace& trace) {
  MOBISIM_CHECK(trace.block_bytes == config_.block_bytes);

  // Pass 1: maximum size each file reaches (for pre-existing allocation).
  std::unordered_map<std::uint32_t, std::uint64_t> max_bytes;
  for (const TraceRecord& rec : trace.records) {
    if (rec.op != OpType::kErase) {
      std::uint64_t& entry = max_bytes[rec.file_id];
      entry = std::max(entry, rec.offset + rec.size_bytes);
    }
  }

  std::vector<BlockRecord> out;
  out.reserve(trace.records.size() * 2);

  for (const TraceRecord& rec : trace.records) {
    pending_fat_blocks_.clear();
    if (rec.op == OpType::kErase) {
      const auto it = files_.find(rec.file_id);
      if (it != files_.end()) {
        FreeClusters(it->second, rec.time_us, &out);
        EmitDirWrite(it->second, rec.time_us, &out);
        files_.erase(it);
        ++stats_.files_deleted;
      }
      continue;
    }

    FileState& file = GetOrCreateFile(rec.file_id, rec.op == OpType::kWrite,
                                      max_bytes[rec.file_id], rec.time_us, &out);
    // Grow the chain if this access reaches beyond it (recreation after a
    // delete, or growth past the silent preallocation).
    const std::uint64_t needed_blocks =
        (rec.offset + std::max<std::uint64_t>(rec.size_bytes, 1) + config_.block_bytes - 1) /
        config_.block_bytes;
    if (needed_blocks > file.clusters.size()) {
      MOBISIM_CHECK(AllocateClusters(file, needed_blocks - file.clusters.size(), rec.time_us,
                                     &out) &&
                    "FAT volume full");
    }

    // Data traffic: one block-level record per contiguous cluster run.
    const std::uint64_t first = rec.offset / config_.block_bytes;
    const std::uint64_t last =
        (rec.offset + std::max<std::uint64_t>(rec.size_bytes, 1) - 1) / config_.block_bytes;
    std::uint64_t run_start = first;
    for (std::uint64_t b = first; b <= last; ++b) {
      const bool contiguous =
          b + 1 <= last && file.clusters[b + 1] == file.clusters[b] + 1;
      if (!contiguous) {
        BlockRecord data;
        data.time_us = rec.time_us;
        data.op = rec.op;
        data.lba = data_begin() + file.clusters[run_start];
        data.block_count = static_cast<std::uint32_t>(b - run_start + 1);
        data.file_id = rec.file_id;
        out.push_back(data);
        if (rec.op == OpType::kRead) {
          stats_.data_blocks_read += data.block_count;
        } else {
          stats_.data_blocks_written += data.block_count;
        }
        run_start = b + 1;
      }
    }

    if (rec.op == OpType::kWrite && config_.dir_update_per_write) {
      EmitDirWrite(file, rec.time_us, &out);
    }
  }

  // Fragmentation statistic.
  RunningStats extents;
  for (const auto& [id, file] : files_) {
    if (file.clusters.empty()) {
      continue;
    }
    std::uint64_t runs = 1;
    for (std::size_t i = 1; i < file.clusters.size(); ++i) {
      runs += file.clusters[i] == file.clusters[i - 1] + 1 ? 0 : 1;
    }
    extents.Add(static_cast<double>(runs));
  }
  stats_.mean_extents_per_file = extents.mean();
  return TraceView::FromImage(
      TraceImage::Build(trace.name + "+fat", config_.block_bytes, total_blocks_, out));
}

}  // namespace mobisim
