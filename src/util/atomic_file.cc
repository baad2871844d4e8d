#include "src/util/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <atomic>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mobisim {

namespace {

void SetError(std::string* error, const std::string& what, const std::string& path) {
  if (error != nullptr) {
    *error = what + " " + path + ": " + std::strerror(errno);
  }
}

// Unique temp name per writer so concurrent stores to one path never share
// a temp file: pid distinguishes processes, the counter threads.
std::string TempName(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

}  // namespace

FileIdentity FileIdentityOf(const struct ::stat& st) {
  FileIdentity identity;
  identity.dev = static_cast<std::uint64_t>(st.st_dev);
  identity.ino = static_cast<std::uint64_t>(st.st_ino);
  identity.size = static_cast<std::uint64_t>(st.st_size);
  identity.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                      static_cast<std::int64_t>(st.st_mtim.tv_nsec);
  return identity;
}

bool WriteFileAtomic(const std::string& path, std::string_view data,
                     std::string* error, FileIdentity* identity) {
  const std::string tmp = TempName(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetError(error, "cannot create", tmp);
    return false;
  }

  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SetError(error, "write failed for", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }

  // fsync before rename: otherwise the rename can be durable while the data
  // is not, which is exactly the torn state this helper exists to prevent.
  struct stat st {};
  if (::fsync(fd) != 0 || ::fstat(fd, &st) != 0 || ::close(fd) != 0) {
    SetError(error, "fsync/fstat/close failed for", tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, "cannot rename into", path);
    ::unlink(tmp.c_str());
    return false;
  }
  if (identity != nullptr) {
    *identity = FileIdentityOf(st);
  }
  return true;
}

bool ReadFileToString(const std::string& path, std::string* data, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    if (error != nullptr) {
      *error = "read failed for " + path;
    }
    return false;
  }
  *data = buffer.str();
  return true;
}

}  // namespace mobisim
