// Crash-safe whole-file writes.
//
// WriteFileAtomic publishes a file's full contents with the classic
// temp-file + fsync + rename protocol: readers either see the old bytes or
// the complete new bytes, never a truncated mix — a crash, a full disk, or
// a concurrent writer to the same path cannot leave a torn file behind.
// Concurrent writers race benignly: each writes its own unique temp file
// and the last rename wins.
#ifndef MOBISIM_SRC_UTIL_ATOMIC_FILE_H_
#define MOBISIM_SRC_UTIL_ATOMIC_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

struct stat;

namespace mobisim {

// One version of one file: device, inode, size and modification time in
// ns.  A file replaced by rename has a new inode; a write in place changes
// its size or its mtime.  So where files are only ever replaced by rename,
// an unchanged identity means unchanged bytes.
struct FileIdentity {
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;

  bool operator==(const FileIdentity&) const = default;
};

FileIdentity FileIdentityOf(const struct ::stat& st);

// Writes `data` to `path` atomically.  On failure returns false with a
// description in `error` (when non-null); the temp file is cleaned up and
// any existing file at `path` is left untouched.  On success `identity`
// (when non-null) is the published file's, taken from the temp file before
// the rename, which keeps the inode and the mtime.
bool WriteFileAtomic(const std::string& path, std::string_view data,
                     std::string* error = nullptr, FileIdentity* identity = nullptr);

// Reads the entire file into `data`.  Returns false with `error` set when
// the file cannot be opened or read.
bool ReadFileToString(const std::string& path, std::string* data,
                      std::string* error = nullptr);

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_ATOMIC_FILE_H_
