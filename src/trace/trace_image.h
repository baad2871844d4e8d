// The `.mtc` v2 entry image: the one form a block trace takes, in memory and
// on disk.
//
// Every lowered trace is built once, straight into this layout (DESIGN.md
// section 8): a 32-byte header, the name, one column per BlockRecord field
// and a Fnv1a64Wide footer, every piece zero-padded to 8 bytes.  A
// TraceImage::Writer allocates the image at its exact size for a record
// count known up front and takes the records one at a time: BlockMapper
// lowers file-level records into one as a generator produces them, and the
// rows entry point writes the rows an importer or the FAT model produced.
// A TraceView adopts the image and walks the columns in place;
// TraceCache::Store writes the bytes to disk as they are.  A warm load maps
// the stored file, which is the same bytes, so both backings of a view
// share one pointer setup (ParseEntryLayout) and every stored entry passes
// one validator (ValidateEntry) before anything reads it.
#ifndef MOBISIM_SRC_TRACE_TRACE_IMAGE_H_
#define MOBISIM_SRC_TRACE_TRACE_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/trace/trace_record.h"

namespace mobisim {

// Bump whenever the workload generators, BlockMapper, or the entry layout
// change in any way that affects the produced trace: the version
// participates in the cache fingerprint, so old entries simply miss.
// v2: column-oriented (SoA) layout with aligned columns for zero-copy mmap.
constexpr std::uint32_t kTraceCacheFormatVersion = 2;

// Resolved offsets of one image's pieces, relative to its first byte.
struct EntryLayout {
  std::uint32_t block_bytes = 0;
  std::uint32_t name_len = 0;
  std::uint64_t record_count = 0;
  std::uint64_t total_blocks = 0;
  std::size_t name_off = 0;
  std::size_t times_off = 0;
  std::size_t lbas_off = 0;
  std::size_t counts_off = 0;
  std::size_t file_ids_off = 0;
  std::size_t ops_off = 0;
  std::size_t footer_off = 0;  // == image size - 8
};

// Reads the header and resolves every column offset.  The record count pins
// the exact size, so a truncated or extended image fails here, before the
// footer hash is computed.  Does not hash.
bool ParseEntryLayout(const char* data, std::size_t size, EntryLayout* layout,
                      std::string* error = nullptr);

// The check every stored entry passes before it is read: ParseEntryLayout,
// the footer hash, and every op byte naming an OpType.  Reads bytes only,
// so `data` may have any alignment.
bool ValidateEntry(const char* data, std::size_t size, std::string* error = nullptr);

// True when typed pointers into an image at `base` read its columns
// correctly: a little-endian host and an 8-byte aligned base.  Otherwise a
// view copies the image into an owned one (TraceImage::Copy).
bool ColumnsAddressableInPlace(const char* base);

// TraceImage's deleter: unmaps the image's pages.
struct UnmapImagePages {
  std::size_t size = 0;
  void operator()(std::byte* pages) const;
};

// An owned image in its own anonymous mapping: page-aligned, so its columns
// are addressable in place, and handed back to the system whole when the
// image goes.  Images are megabytes each and are freed by other threads
// than built them; from the heap, one such free raises malloc's mmap
// threshold past the image size, and the images after it then fragment the
// per-thread arenas, which made a sweep's peak memory grow with its number
// of traces.  Move-only.
class TraceImage {
 public:
  TraceImage() = default;

  class Writer;

  // Lowers `trace` with BlockMapper, writing every record straight into its
  // columns.
  static TraceImage Build(const Trace& trace);
  // The image of rows that are already lowered (imports, FAT lowering),
  // written in the order given; `total_blocks` is the address-space size.
  static TraceImage Build(const std::string& name, std::uint32_t block_bytes,
                          std::uint64_t total_blocks, std::span<const BlockRecord> rows);
  // An aligned copy of entry bytes (a file that could not be mapped in
  // place).  Validate the bytes before adopting the copy.
  static TraceImage Copy(std::string_view bytes);

  const char* data() const { return reinterpret_cast<const char*>(bytes_.get()); }
  std::size_t size() const { return size_; }
  std::string_view bytes() const { return {data(), size_}; }

  // On a big-endian host, turns the little-endian column words into host
  // order in place, after which the buffer is no longer entry bytes; a
  // no-op on little-endian hosts.  TraceView::FromImage calls it.
  void ColumnsToHostOrder();

 private:
  using Pages = std::unique_ptr<std::byte[], UnmapImagePages>;
  // `size` bytes of fresh, zeroed pages.
  static Pages AllocatePages(std::size_t size);

  TraceImage(Pages bytes, std::size_t size) : bytes_(std::move(bytes)), size_(size) {}

  Pages bytes_;
  std::size_t size_ = 0;
};

// Writes an image of `record_count` records in place: allocates it at its
// exact final size (fresh pages, so every padding byte is already zero),
// writes the header up front, and leaves the columns to Put.  Columns are in host order until Finish, which
// fixes the byte order and writes the footer.  Move-only.
class TraceImage::Writer {
 public:
  Writer(const std::string& name, std::uint32_t block_bytes, std::size_t record_count);

  std::size_t record_count() const { return layout_.record_count; }

  void Put(std::size_t i, const BlockRecord& rec) {
    times_[i] = rec.time_us;
    lbas_[i] = rec.lba;
    counts_[i] = rec.block_count;
    file_ids_[i] = rec.file_id;
    ops_[i] = static_cast<std::uint8_t>(rec.op);
  }

  // The columns Put wrote, for a pass that rewrites them in place.
  std::uint64_t* lbas() { return lbas_; }
  std::uint32_t* counts() { return counts_; }
  std::uint32_t* file_ids() { return file_ids_; }
  const std::uint8_t* ops() const { return ops_; }

  // Writes total_blocks and the footer hash over everything before it.
  TraceImage Finish(std::uint64_t total_blocks);

 private:
  EntryLayout layout_;
  Pages bytes_;
  SimTime* times_ = nullptr;
  std::uint64_t* lbas_ = nullptr;
  std::uint32_t* counts_ = nullptr;
  std::uint32_t* file_ids_ = nullptr;
  std::uint8_t* ops_ = nullptr;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_TRACE_IMAGE_H_
