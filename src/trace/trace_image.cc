#include "src/trace/trace_image.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <new>

#include <sys/mman.h>

#include "src/trace/block_mapper.h"
#include "src/util/check.h"
#include "src/util/hash.h"

namespace mobisim {

namespace {

// Every column starts 8-byte aligned relative to the image's first byte
// because the fixed header is 32 bytes and every variable piece is
// zero-padded to the next 8-byte boundary.
constexpr char kEntryMagic[4] = {'M', 'T', 'C', '2'};
constexpr std::size_t kFixedHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8;
constexpr std::size_t kFooterBytes = 8;
constexpr bool kHostIsLittleEndian = std::endian::native == std::endian::little;

constexpr std::size_t PadTo8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

// The offsets of an image with `n` records and a `name_len`-byte name.
EntryLayout LayoutFor(std::uint32_t name_len, std::uint64_t n) {
  EntryLayout layout;
  layout.name_len = name_len;
  layout.record_count = n;
  layout.name_off = kFixedHeaderBytes;
  layout.times_off = layout.name_off + PadTo8(name_len);
  layout.lbas_off = layout.times_off + 8 * n;
  layout.counts_off = layout.lbas_off + 8 * n;
  layout.file_ids_off = layout.counts_off + PadTo8(4 * n);
  layout.ops_off = layout.file_ids_off + PadTo8(4 * n);
  layout.footer_off = layout.ops_off + PadTo8(n);
  return layout;
}

// Little-endian fixed-width fields, byte by byte so the header and footer
// read and write the same on any host.
template <typename T>
void PutLe(char* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

template <typename T>
T GetLe(const char* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

template <typename T>
void SwapWords(char* p, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    T v;
    std::memcpy(&v, p + sizeof(T) * i, sizeof(T));
    T swapped = 0;
    for (std::size_t b = 0; b < sizeof(T); ++b) {
      swapped = static_cast<T>((swapped << 8) | ((v >> (8 * b)) & 0xff));
    }
    std::memcpy(p + sizeof(T) * i, &swapped, sizeof(T));
  }
}

// Reverses the byte order of every numeric column word: little-endian entry
// bytes to host order on a big-endian host, and back (it is an involution).
void SwapColumnWords(char* base, const EntryLayout& layout) {
  SwapWords<std::uint64_t>(base + layout.times_off, layout.record_count);
  SwapWords<std::uint64_t>(base + layout.lbas_off, layout.record_count);
  SwapWords<std::uint32_t>(base + layout.counts_off, layout.record_count);
  SwapWords<std::uint32_t>(base + layout.file_ids_off, layout.record_count);
}

void SetError(std::string* error, const char* message) {
  if (error != nullptr) {
    *error = message;
  }
}

}  // namespace

TraceImage::Writer::Writer(const std::string& name, std::uint32_t block_bytes,
                           std::size_t record_count)
    : layout_(LayoutFor(static_cast<std::uint32_t>(name.size()), record_count)),
      bytes_(AllocatePages(layout_.footer_off + kFooterBytes)) {
  char* base = reinterpret_cast<char*>(bytes_.get());
  std::memcpy(base, kEntryMagic, sizeof(kEntryMagic));
  PutLe(base + 4, kTraceCacheFormatVersion);
  PutLe(base + 8, block_bytes);
  PutLe(base + 12, layout_.name_len);
  PutLe(base + 16, layout_.record_count);
  std::memcpy(base + layout_.name_off, name.data(), name.size());
  std::byte* raw = bytes_.get();
  times_ = reinterpret_cast<SimTime*>(raw + layout_.times_off);
  lbas_ = reinterpret_cast<std::uint64_t*>(raw + layout_.lbas_off);
  counts_ = reinterpret_cast<std::uint32_t*>(raw + layout_.counts_off);
  file_ids_ = reinterpret_cast<std::uint32_t*>(raw + layout_.file_ids_off);
  ops_ = reinterpret_cast<std::uint8_t*>(raw + layout_.ops_off);
}

TraceImage TraceImage::Writer::Finish(std::uint64_t total_blocks) {
  char* base = reinterpret_cast<char*>(bytes_.get());
  PutLe(base + 24, total_blocks);
  if constexpr (!kHostIsLittleEndian) {
    SwapColumnWords(base, layout_);
  }
  PutLe(base + layout_.footer_off, Fnv1a64Wide(base, layout_.footer_off));
  return TraceImage(std::move(bytes_), layout_.footer_off + kFooterBytes);
}

TraceImage TraceImage::Build(const Trace& trace) {
  BlockMapper mapper(trace.name, trace.block_bytes, trace.records.size());
  for (const TraceRecord& rec : trace.records) {
    mapper.Append(rec);
  }
  return mapper.Finish();
}

TraceImage TraceImage::Build(const std::string& name, std::uint32_t block_bytes,
                             std::uint64_t total_blocks, std::span<const BlockRecord> rows) {
  Writer writer(name, block_bytes, rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    writer.Put(i, rows[i]);
  }
  return writer.Finish(total_blocks);
}

TraceImage::Pages TraceImage::AllocatePages(std::size_t size) {
  // Populated up front: one call faults in every page the writer is about
  // to fill anyway.
  void* pages = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return Pages(static_cast<std::byte*>(pages), UnmapImagePages{size});
}

void UnmapImagePages::operator()(std::byte* pages) const { ::munmap(pages, size); }

TraceImage TraceImage::Copy(std::string_view bytes) {
  Pages copy = AllocatePages(bytes.size());
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  return TraceImage(std::move(copy), bytes.size());
}

void TraceImage::ColumnsToHostOrder() {
  if constexpr (!kHostIsLittleEndian) {
    EntryLayout layout;
    MOBISIM_CHECK(ParseEntryLayout(data(), size(), &layout));
    SwapColumnWords(reinterpret_cast<char*>(bytes_.get()), layout);
  }
}

bool ParseEntryLayout(const char* data, std::size_t size, EntryLayout* layout,
                      std::string* error) {
  if (size < kFixedHeaderBytes + kFooterBytes) {
    SetError(error, "entry truncated (shorter than header)");
    return false;
  }
  if (std::memcmp(data, kEntryMagic, sizeof(kEntryMagic)) != 0) {
    SetError(error, "bad magic");
    return false;
  }
  if (GetLe<std::uint32_t>(data + 4) != kTraceCacheFormatVersion) {
    SetError(error, "format version mismatch");
    return false;
  }
  const std::uint32_t name_len = GetLe<std::uint32_t>(data + 12);
  if (name_len > size - kFixedHeaderBytes - kFooterBytes) {
    SetError(error, "entry truncated (name)");
    return false;
  }
  // The times column alone needs 8 bytes per record; bounding the count by
  // it keeps the offset arithmetic in LayoutFor overflow-free.
  const std::uint64_t n = GetLe<std::uint64_t>(data + 16);
  if (n > size / 8) {
    SetError(error, "entry truncated (records)");
    return false;
  }
  *layout = LayoutFor(name_len, n);
  layout->block_bytes = GetLe<std::uint32_t>(data + 8);
  layout->total_blocks = GetLe<std::uint64_t>(data + 24);
  if (layout->footer_off + kFooterBytes != size) {
    SetError(error, "entry truncated (records)");
    return false;
  }
  return true;
}

bool ValidateEntry(const char* data, std::size_t size, std::string* error) {
  EntryLayout layout;
  if (!ParseEntryLayout(data, size, &layout, error)) {
    return false;
  }
  if (Fnv1a64Wide(data, layout.footer_off) !=
      GetLe<std::uint64_t>(data + layout.footer_off)) {
    SetError(error, "footer hash mismatch");
    return false;
  }
  for (std::uint64_t i = 0; i < layout.record_count; ++i) {
    if (static_cast<unsigned char>(data[layout.ops_off + i]) >
        static_cast<unsigned char>(OpType::kErase)) {
      SetError(error, "bad op byte");
      return false;
    }
  }
  return true;
}

bool ColumnsAddressableInPlace(const char* base) {
  return kHostIsLittleEndian && (reinterpret_cast<std::uintptr_t>(base) & 7) == 0;
}

}  // namespace mobisim
