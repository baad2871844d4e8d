// FAT-style file-system model: lowers file-level traces to block-level
// traffic *including metadata*.
//
// The paper notes (section 4.1) that its file-level traces lack the metadata
// operations the disk-level hp trace contains, and its simulator maps each
// file to a unique disk location with no file-system overhead.  This module
// provides the missing substrate: a DOS-era FAT layout with
//   - a reserved boot block,
//   - `fat_copies` file-allocation tables of 16-bit entries (DOS writes all
//     copies on every allocation change),
//   - a directory region of 32-byte entries (updated when a file's size or
//     timestamp changes), and
//   - a data region of clusters allocated next-fit, so files written after
//     deletions fragment.
//
// Lowering a trace through it yields the extra metadata writes that hammer
// the (fixed, very hot) FAT blocks -- the access pattern that burns out
// flash under a conventional file system and motivated log-structured flash
// file systems like MFFS (sections 2 and 6).
#ifndef MOBISIM_SRC_FS_FAT_FILE_SYSTEM_H_
#define MOBISIM_SRC_FS_FAT_FILE_SYSTEM_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/trace/trace_record.h"
#include "src/trace/trace_view.h"

namespace mobisim {

struct FatConfig {
  std::uint64_t capacity_bytes = 40ull * 1024 * 1024;
  // Cluster size; also the unit of the emitted block trace.
  std::uint32_t block_bytes = 1024;
  std::uint32_t fat_copies = 2;
  std::uint32_t dir_entry_bytes = 32;
  // Root-directory capacity in entries (DOS default 512).
  std::uint32_t dir_entries = 512;
  // Update the file's directory entry on every write (size/mtime), as DOS
  // does when applications write through the file handle.
  bool dir_update_per_write = true;
};

struct FatStats {
  std::uint64_t data_blocks_read = 0;
  std::uint64_t data_blocks_written = 0;
  std::uint64_t fat_blocks_written = 0;
  std::uint64_t dir_blocks_written = 0;
  std::uint64_t files_created = 0;
  std::uint64_t files_deleted = 0;
  std::uint64_t allocations = 0;
  // Fragmentation: 1.0 means every file is one contiguous extent.
  double mean_extents_per_file = 0.0;

  std::uint64_t metadata_blocks_written() const {
    return fat_blocks_written + dir_blocks_written;
  }
};

class FatFileSystem {
 public:
  explicit FatFileSystem(const FatConfig& config);

  // Lowers `trace` to block-level traffic, including metadata writes.
  // Files first seen via a read are treated as pre-existing (their clusters
  // are allocated silently at mount); files first seen via a write are
  // created, with allocation traffic.  The view spans the whole volume
  // (total_blocks()).
  TraceView Lower(const Trace& trace);

  const FatStats& stats() const { return stats_; }

  // Layout introspection (block addresses).
  std::uint64_t fat_begin() const { return 1; }
  std::uint64_t fat_blocks() const { return fat_blocks_per_copy_ * config_.fat_copies; }
  std::uint64_t dir_begin() const { return fat_begin() + fat_blocks(); }
  std::uint64_t dir_blocks() const { return dir_blocks_; }
  std::uint64_t data_begin() const { return dir_begin() + dir_blocks_; }
  std::uint64_t total_blocks() const { return total_blocks_; }
  std::uint64_t free_clusters() const;

  // Exposed for tests: the cluster chain of a file (empty if unknown).
  std::vector<std::uint32_t> FileClusters(std::uint32_t file_id) const;

 private:
  struct FileState {
    std::uint32_t dir_slot = 0;
    std::vector<std::uint32_t> clusters;
  };

  // Allocates `count` clusters next-fit; emits FAT writes into `out`.
  // Returns false if the volume is full.
  bool AllocateClusters(FileState& file, std::uint64_t count, SimTime t,
                        std::vector<BlockRecord>* out);
  void FreeClusters(FileState& file, SimTime t, std::vector<BlockRecord>* out);
  void EmitFatWrite(std::uint32_t cluster, SimTime t, std::vector<BlockRecord>* out);
  void EmitDirWrite(const FileState& file, SimTime t, std::vector<BlockRecord>* out);
  FileState& GetOrCreateFile(std::uint32_t file_id, bool created_by_write,
                             std::uint64_t initial_bytes, SimTime t,
                             std::vector<BlockRecord>* out);

  FatConfig config_;
  std::uint64_t total_blocks_;
  std::uint64_t fat_blocks_per_copy_;
  std::uint64_t dir_blocks_;
  std::uint64_t data_clusters_;
  std::vector<bool> cluster_used_;
  std::uint32_t next_fit_cursor_ = 0;
  std::uint32_t next_dir_slot_ = 0;
  std::unordered_map<std::uint32_t, FileState> files_;
  FatStats stats_;
  // Dedupe FAT-block writes within one operation.
  std::vector<std::uint64_t> pending_fat_blocks_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_FS_FAT_FILE_SYSTEM_H_
