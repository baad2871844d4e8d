#include "src/trace/trace_view.h"

#include "src/util/check.h"

namespace mobisim {

namespace {

// The one pointer setup, for owned and mapped images alike.
TraceView Attach(std::shared_ptr<TraceViewStorage> storage, const char* base,
                 std::size_t size) {
  EntryLayout layout;
  MOBISIM_CHECK(ParseEntryLayout(base, size, &layout));
  storage->name.assign(base + layout.name_off, layout.name_len);
  storage->block_bytes = layout.block_bytes;
  storage->total_blocks = layout.total_blocks;
  storage->record_count = layout.record_count;
  storage->times = reinterpret_cast<const SimTime*>(base + layout.times_off);
  storage->lbas = reinterpret_cast<const std::uint64_t*>(base + layout.lbas_off);
  storage->counts = reinterpret_cast<const std::uint32_t*>(base + layout.counts_off);
  storage->file_ids = reinterpret_cast<const std::uint32_t*>(base + layout.file_ids_off);
  storage->ops = reinterpret_cast<const std::uint8_t*>(base + layout.ops_off);
  return TraceView(std::move(storage));
}

}  // namespace

TraceView TraceView::FromImage(TraceImage image) {
  image.ColumnsToHostOrder();
  auto storage = std::make_shared<TraceViewStorage>();
  storage->image = std::move(image);
  const char* base = storage->image.data();
  const std::size_t size = storage->image.size();
  return Attach(std::move(storage), base, size);
}

TraceView TraceView::FromMapping(MmapFile map) {
  MOBISIM_CHECK(ColumnsAddressableInPlace(map.data()));
  auto storage = std::make_shared<TraceViewStorage>();
  storage->zero_copy = true;
  storage->map = std::move(map);
  const char* base = storage->map.data();
  const std::size_t size = storage->map.size();
  return Attach(std::move(storage), base, size);
}

}  // namespace mobisim
