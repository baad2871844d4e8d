// Read-only, column-oriented view of a block trace: the one in-memory form
// of a lowered trace.
//
// The simulator's per-record loop reads five fields per record; a TraceView
// hands it five parallel arrays (structure-of-arrays) instead of a vector of
// structs.  Every view's columns live in a `.mtc` v2 entry image (see
// trace_image.h): either an owned TraceImage (built in memory by a
// generator lowering as it goes, BlockMapper::Map, FatFileSystem::Lower or
// an importer, or copied from an entry file that cannot be addressed in
// place) or an mmap'd trace-cache entry, the zero-copy path.  Both backings
// have the same layout and go through the same pointer setup, so simulation
// results are byte-identical whichever path produced the view.
//
// Views are cheap to copy (one shared_ptr) and safe to share across sweep
// worker threads — the backing is immutable after construction.  A view
// keeps its mapping alive even if the cache entry is gc'd or overwritten
// underneath it: the unlinked file's pages stay valid until the last view
// drops (POSIX mmap semantics; pinned by trace_view_test).
#ifndef MOBISIM_SRC_TRACE_TRACE_VIEW_H_
#define MOBISIM_SRC_TRACE_TRACE_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/trace/trace_image.h"
#include "src/trace/trace_record.h"
#include "src/util/mmap_file.h"

namespace mobisim {

// The immutable backing of a TraceView: one entry image, owned or mapped,
// and typed pointers to its columns.  Consumers never touch this directly.
struct TraceViewStorage {
  std::string name;
  std::uint32_t block_bytes = 0;
  std::uint64_t total_blocks = 0;
  std::size_t record_count = 0;
  bool zero_copy = false;

  // Exactly one of the two holds the image the columns point into.
  TraceImage image;
  MmapFile map;

  const SimTime* times = nullptr;
  const std::uint64_t* lbas = nullptr;
  const std::uint32_t* counts = nullptr;
  const std::uint32_t* file_ids = nullptr;
  const std::uint8_t* ops = nullptr;
};

class TraceView {
 public:
  TraceView() = default;
  explicit TraceView(std::shared_ptr<const TraceViewStorage> storage)
      : storage_(std::move(storage)) {}

  // Adopts an owned image: one TraceImage::Build made, or a copy of an
  // entry that passed ValidateEntry.
  static TraceView FromImage(TraceImage image);
  // Walks a mapped entry in place (zero copy).  The caller has validated it
  // and checked ColumnsAddressableInPlace(map.data()).
  static TraceView FromMapping(MmapFile map);

  bool empty() const { return storage_ == nullptr || storage_->record_count == 0; }
  explicit operator bool() const { return storage_ != nullptr; }

  const std::string& name() const { return storage_->name; }
  std::uint32_t block_bytes() const { return storage_->block_bytes; }
  // One past the highest LBA any record touches (the address-space size).
  std::uint64_t total_blocks() const { return storage_->total_blocks; }
  std::uint64_t total_bytes() const { return total_blocks() * block_bytes(); }
  std::size_t size() const { return storage_ == nullptr ? 0 : storage_->record_count; }
  // True when the columns point into a mapped cache entry (no copy was
  // made); the one thing that tells the two backings apart.
  bool zero_copy() const { return storage_ != nullptr && storage_->zero_copy; }

  const SimTime* times() const { return storage_->times; }
  const std::uint64_t* lbas() const { return storage_->lbas; }
  const std::uint32_t* counts() const { return storage_->counts; }
  const std::uint32_t* file_ids() const { return storage_->file_ids; }
  const std::uint8_t* ops() const { return storage_->ops; }

  // Row-form accessor for tests and non-hot-path consumers.
  BlockRecord record(std::size_t i) const {
    BlockRecord rec;
    rec.time_us = storage_->times[i];
    rec.op = static_cast<OpType>(storage_->ops[i]);
    rec.lba = storage_->lbas[i];
    rec.block_count = storage_->counts[i];
    rec.file_id = storage_->file_ids[i];
    return rec;
  }

 private:
  std::shared_ptr<const TraceViewStorage> storage_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_TRACE_VIEW_H_
