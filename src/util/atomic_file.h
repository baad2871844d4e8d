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

#include <string>
#include <string_view>

namespace mobisim {

// Writes `data` to `path` atomically.  On failure returns false with a
// description in `error` (when non-null); the temp file is cleaned up and
// any existing file at `path` is left untouched.
bool WriteFileAtomic(const std::string& path, std::string_view data,
                     std::string* error = nullptr);

// Reads the entire file into `data`.  Returns false with `error` set when
// the file cannot be opened or read.
bool ReadFileToString(const std::string& path, std::string* data,
                      std::string* error = nullptr);

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_ATOMIC_FILE_H_
