// Lowers file-level records to block-level ones, straight into a TraceImage.
//
// Mirrors the preprocessing in section 4.1 of the paper: each file is
// associated with a unique disk location.  A BlockMapper is told the record
// count up front and takes the records one at a time, as a generator
// produces them.  Each record goes into the image at once: its time, op and
// block count, its first block *within its file* in the lba column, and its
// file's slot (the file's rank in order of first appearance) in the file-id
// column.  Outside the image the mapper keeps only the files: each one's id
// and its extent, the largest block count any of its records reaches.
// Finish lays the extents out contiguously in order of first appearance and
// makes one pass over the image that adds each file's first block to its
// lbas, turns each whole-file erase into a trim of the file's extent, and
// puts the file ids back.
#ifndef MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_
#define MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/trace_image.h"
#include "src/trace/trace_record.h"
#include "src/trace/trace_view.h"
#include "src/util/check.h"

namespace mobisim {

class BlockMapper {
 public:
  // An image of `record_count` records; Append must be called exactly that
  // many times before Finish.
  BlockMapper(const std::string& name, std::uint32_t block_bytes, std::size_t record_count);

  // Lowers `trace` using its own block size:
  // TraceView::FromImage(TraceImage::Build(trace)).
  static TraceView Map(const Trace& trace);

  void Append(const TraceRecord& rec);
  // Resolves every record to its file's extent and returns the image, whose
  // total_blocks is the sum of the extents.  An erase of a file whose extent
  // exceeds UINT32_MAX blocks fails a check naming the file and its extent.
  TraceImage Finish();

 private:
  // A file in order of first appearance.  A file whose only events are
  // erases keeps a minimal 1-block extent.
  struct File {
    std::uint32_t id = 0;
    std::uint64_t first_block = 0;
    std::uint64_t block_count = 1;
  };

  // Byte offsets to blocks.  Every generator's block size is a power of
  // two, where a shift gives the quotient without a 64-bit division.
  std::uint64_t BlocksOf(std::uint64_t bytes) const {
    return pow2_ ? bytes >> shift_ : bytes / block_bytes_;
  }

  TraceImage::Writer writer_;
  std::uint64_t block_bytes_;
  bool pow2_;
  int shift_;
  std::size_t next_ = 0;
  std::vector<File> files_;
  // File id to slot in files_: a hash map, since file ids read from trace
  // files may be any 32-bit value.
  std::unordered_map<std::uint32_t, std::uint32_t> slots_;
};

inline void BlockMapper::Append(const TraceRecord& rec) {
  MOBISIM_CHECK(next_ < writer_.record_count());
  const auto [it, inserted] =
      slots_.try_emplace(rec.file_id, static_cast<std::uint32_t>(files_.size()));
  if (inserted) {
    files_.push_back(File{rec.file_id});
  }
  const std::uint32_t slot = it->second;
  BlockRecord out;
  out.time_us = rec.time_us;
  out.op = rec.op;
  out.file_id = slot;
  // An erase's lba and count are its extent's, known only at Finish.
  if (rec.op != OpType::kErase) {
    const std::uint64_t first = BlocksOf(rec.offset);
    const std::uint64_t last =
        BlocksOf(rec.offset + std::max<std::uint64_t>(rec.size_bytes, 1) - 1);
    out.lba = first;
    out.block_count = static_cast<std::uint32_t>(last - first + 1);
    const std::uint64_t end = rec.offset + rec.size_bytes;
    File& file = files_[slot];
    file.block_count = std::max(file.block_count, BlocksOf(end + block_bytes_ - 1));
  }
  writer_.Put(next_++, out);
}

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_
