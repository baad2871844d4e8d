// The `.mtc` v2 entry image: the one form a block trace takes, in memory and
// on disk.
//
// Every lowered trace is built once, straight into this layout (DESIGN.md
// section 8): a 32-byte header, the name, one column per BlockRecord field
// and a Fnv1a64Wide footer, every piece zero-padded to 8 bytes.
// TraceImage::Build runs BlockMapper's loop and writes each mapped record
// into its columns (or writes the rows an importer or the FAT model
// produced); a TraceView adopts the image and walks the columns in place;
// TraceCache::Store writes the bytes to disk as they are.  A warm
// load maps the stored file, which is the same bytes, so both backings of a
// view share one pointer setup (ParseEntryLayout) and every stored entry
// passes one validator (ValidateEntry) before anything reads it.
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

// An owned image in one 8-byte aligned buffer.  Move-only.
class TraceImage {
 public:
  TraceImage() = default;

  // Lowers `trace` with BlockMapper, writing every record straight into its
  // columns: the same bytes as the rows overload below given the rows
  // MapEach emits.
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
  class Writer;
  TraceImage(std::unique_ptr<std::byte[]> bytes, std::size_t size)
      : bytes_(std::move(bytes)), size_(size) {}

  // A std::byte array, so the typed column words written into it and read
  // through TraceView's pointers are implicitly created objects.
  std::unique_ptr<std::byte[]> bytes_;
  std::size_t size_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_TRACE_IMAGE_H_
