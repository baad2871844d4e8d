// Lowers a file-level Trace to block-level records, held in a TraceView.
//
// Mirrors the preprocessing in section 4.1 of the paper: each file is
// associated with a unique disk location.  We make two passes: the first
// finds the maximum extent each file ever reaches; the extents are then laid
// out contiguously in order of first appearance, and the second pass emits
// block-level records.  Whole-file erases become trims of the file's extent.
#ifndef MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_
#define MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/trace/trace_record.h"
#include "src/trace/trace_view.h"
#include "src/util/check.h"

namespace mobisim {

class BlockMapper {
 public:
  // Lowers `trace` using its own block size:
  // TraceView::FromImage(TraceImage::Build(trace)).
  static TraceView Map(const Trace& trace);

  // The mapping loop itself: calls `emit(i, block_record)` for each
  // trace.records[i], in order, and returns the address-space size
  // (TraceView::total_blocks).  TraceImage::Build writes each record
  // straight into its image's columns.
  template <typename Emit>
  static std::uint64_t MapEach(const Trace& trace, Emit&& emit);

  // The contiguous extent assigned to a file, in blocks.
  struct Extent {
    std::uint64_t first_block = 0;
    std::uint64_t block_count = 0;
  };
};

template <typename Emit>
std::uint64_t BlockMapper::MapEach(const Trace& trace, Emit&& emit) {
  MOBISIM_CHECK(trace.block_bytes > 0);
  const std::uint64_t block = trace.block_bytes;
  const std::size_t n = trace.records.size();
  // Byte offsets to blocks.  Every generator's block size is a power of
  // two, where a shift gives the quotient without a 64-bit division.
  const bool pow2 = std::has_single_bit(block);
  const int shift = std::countr_zero(block);
  const auto blocks_of = [&](std::uint64_t bytes) {
    return pow2 ? bytes >> shift : bytes / block;
  };

  // Each file gets a slot in order of first appearance; pass 1 looks it up
  // once per record and pass 2 reads it back from record_slots.
  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::unordered_map<std::uint32_t, std::uint32_t> slots;

  // Pass 1: every record's slot, and the maximum extent (in blocks) each
  // file ever reaches.  A file whose only events are erases keeps a minimal
  // 1-block extent.
  std::vector<Extent> extents;
  std::vector<std::uint32_t> record_slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& rec = trace.records[i];
    std::uint32_t& slot = slots.try_emplace(rec.file_id, kNoSlot).first->second;
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(extents.size());
      extents.push_back(Extent{0, 1});
    }
    record_slots[i] = slot;
    if (rec.op != OpType::kErase) {
      const std::uint64_t end = rec.offset + rec.size_bytes;
      const std::uint64_t blocks = blocks_of(end + block - 1);
      extents[slot].block_count = std::max(extents[slot].block_count, blocks);
    }
  }

  // Extents are laid out contiguously in order of first appearance.
  std::uint64_t next_block = 0;
  for (Extent& extent : extents) {
    extent.first_block = next_block;
    next_block += extent.block_count;
  }

  // Pass 2: emit the block records.
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& rec = trace.records[i];
    const Extent& extent = extents[record_slots[i]];
    BlockRecord block_rec;
    block_rec.time_us = rec.time_us;
    block_rec.op = rec.op;
    block_rec.file_id = rec.file_id;
    if (rec.op == OpType::kErase) {
      block_rec.lba = extent.first_block;
      block_rec.block_count = static_cast<std::uint32_t>(extent.block_count);
    } else {
      const std::uint64_t first = blocks_of(rec.offset);
      const std::uint64_t last =
          blocks_of(rec.offset + std::max<std::uint64_t>(rec.size_bytes, 1) - 1);
      MOBISIM_CHECK(last < extent.block_count);
      block_rec.lba = extent.first_block + first;
      block_rec.block_count = static_cast<std::uint32_t>(last - first + 1);
    }
    emit(i, block_rec);
  }
  return next_block;
}

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_
