#include "src/cache/sram_write_buffer.h"

#include "src/util/check.h"

namespace mobisim {

SramWriteBuffer::SramWriteBuffer(const MemorySpec& spec, std::uint64_t capacity_bytes,
                                 std::uint32_t block_bytes, std::uint64_t address_blocks)
    : spec_(spec),
      capacity_blocks_(capacity_bytes / block_bytes),
      block_bytes_(block_bytes),
      meter_({{"active", spec.active_w}, {"retention", 0.0}}),
      // A disabled buffer never probes, so it indexes nothing.
      dirty_(capacity_blocks_ > 0 ? address_blocks : 0) {
  MOBISIM_CHECK(block_bytes > 0);
  retention_w_ = spec.idle_w_per_mbyte * static_cast<double>(capacity_bytes) / (1024.0 * 1024.0);
}

bool SramWriteBuffer::Absorb(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return false;
  }
  std::uint32_t new_blocks = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!dirty_.contains(lba + i)) {
      ++new_blocks;
    }
  }
  if (dirty_.size() + new_blocks > capacity_blocks_) {
    return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    dirty_.insert(lba + i);
  }
  ++absorbed_;
  return true;
}

void SramWriteBuffer::Discard(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    dirty_.erase(lba + i);
  }
}

void SramWriteBuffer::Drain(std::vector<BlockRange>* out) {
  if (!dirty_.empty()) {
    ++flushes_;
  }
  dirty_.DrainInto(out);
}

}  // namespace mobisim
