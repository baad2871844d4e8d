#include "src/cache/buffer_cache.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

BufferCache::BufferCache(const MemorySpec& spec, std::uint64_t capacity_bytes,
                         std::uint32_t block_bytes, std::uint64_t address_blocks)
    : spec_(spec),
      capacity_blocks_(capacity_bytes / block_bytes),
      block_bytes_(block_bytes),
      meter_({{"active", spec.active_w}, {"refresh", /*computed below*/ 0.0}}),
      // A disabled cache never probes, so it indexes nothing.
      cache_(capacity_blocks_ > 0 ? address_blocks : 0, capacity_blocks_) {
  MOBISIM_CHECK(block_bytes > 0);
  refresh_w_ = spec.idle_w_per_mbyte * static_cast<double>(capacity_bytes) / (1024.0 * 1024.0);
}

void BufferCache::InvalidateRange(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    cache_.Erase(lba + i);
  }
}

void BufferCache::Clear() { cache_.Clear(); }

void BufferCache::MarkDirty(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const bool present = cache_.MarkDirty(lba + i);
    MOBISIM_DCHECK(present);
    (void)present;
  }
}

void BufferCache::DrainDirty(std::vector<BlockRange>* out) {
  drain_scratch_.clear();
  cache_.CollectDirty(&drain_scratch_);
  std::sort(drain_scratch_.begin(), drain_scratch_.end());
  cache_.ClearDirtyBits();
  out->clear();
  for (const std::uint64_t block : drain_scratch_) {
    AppendCoalesced(block, out);
  }
}

}  // namespace mobisim
