#include "src/trace/block_mapper.h"

#include <bit>

namespace mobisim {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
    case OpType::kErase:
      return "erase";
  }
  return "unknown";
}

BlockMapper::BlockMapper(const std::string& name, std::uint32_t block_bytes,
                         std::size_t record_count)
    : writer_(name, block_bytes, record_count),
      block_bytes_(block_bytes),
      pow2_(std::has_single_bit(block_bytes)),
      shift_(std::countr_zero(block_bytes)) {
  MOBISIM_CHECK(block_bytes > 0);
}

TraceView BlockMapper::Map(const Trace& trace) {
  return TraceView::FromImage(TraceImage::Build(trace));
}

TraceImage BlockMapper::Finish() {
  MOBISIM_CHECK(next_ == writer_.record_count());
  std::uint64_t next_block = 0;
  for (File& file : files_) {
    file.first_block = next_block;
    next_block += file.block_count;
  }
  std::uint64_t* lbas = writer_.lbas();
  std::uint32_t* counts = writer_.counts();
  std::uint32_t* file_ids = writer_.file_ids();
  const std::uint8_t* ops = writer_.ops();
  for (std::size_t i = 0; i < next_; ++i) {
    const File& file = files_[file_ids[i]];
    if (ops[i] == static_cast<std::uint8_t>(OpType::kErase)) {
      // An erase's block count is its file's whole extent, which must fit
      // the 32-bit count column.
      MOBISIM_CHECK_MSG(file.block_count <= UINT32_MAX,
                        "erase of file " + std::to_string(file.id) + " spans its extent of " +
                            std::to_string(file.block_count) + " blocks");
      lbas[i] = file.first_block;
      counts[i] = static_cast<std::uint32_t>(file.block_count);
    } else {
      // The last block the record touches lies inside its file's extent.
      MOBISIM_CHECK(lbas[i] + counts[i] - 1 < file.block_count);
      lbas[i] += file.first_block;
    }
    file_ids[i] = file.id;
  }
  return writer_.Finish(next_block);
}

}  // namespace mobisim
