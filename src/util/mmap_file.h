// Read-only memory-mapped file (RAII).
//
// Backs the trace cache's zero-copy read path: a cached `.mtc` entry is
// mapped once and the simulator walks the record columns in place, so a warm
// sweep never copies trace payloads through userspace buffers.  The pattern
// follows the anti-caching mmap-pool exemplar in SNIPPETS.md — hand segments
// out of a mapping instead of materializing them.
//
// POSIX semantics this code relies on (and tests pin): the mapping stays
// valid after the file descriptor is closed, and after the file is unlinked
// — a gc eviction cannot invalidate a live view, the pages are released when
// the last mapping goes away.
#ifndef MOBISIM_SRC_UTIL_MMAP_FILE_H_
#define MOBISIM_SRC_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <string>

#include "src/util/atomic_file.h"

namespace mobisim {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { Reset(); }

  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  // Maps `path` read-only (PROT_READ, MAP_PRIVATE) and closes the fd.  On
  // failure returns false, describes why in `error` (when non-null), and
  // leaves the object unmapped.  An empty file maps successfully with
  // size() == 0 and data() == nullptr (mmap of length 0 is invalid).
  bool Open(const std::string& path, std::string* error = nullptr);

  void Reset();

  bool valid() const { return data_ != nullptr || (mapped_ && size_ == 0); }
  const char* data() const { return static_cast<const char*>(data_); }
  std::size_t size() const { return size_; }
  // The mapped file's identity at Open (all zero when not mapped).
  const FileIdentity& identity() const { return identity_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  FileIdentity identity_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_MMAP_FILE_H_
