#include "src/util/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mobisim {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

}  // namespace

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    identity_ = std::exchange(other.identity_, FileIdentity{});
  }
  return *this;
}

bool MmapFile::Open(const std::string& path, std::string* error) {
  Reset();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    SetError(error, "open " + path + ": " + std::strerror(errno));
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    SetError(error, "fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return false;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    mapped_ = true;  // an empty file is a valid (empty) mapping
    identity_ = FileIdentityOf(st);
    return true;
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive without the fd
  if (addr == MAP_FAILED) {
    SetError(error, "mmap " + path + ": " + std::strerror(errno));
    return false;
  }
  data_ = addr;
  size_ = size;
  mapped_ = true;
  identity_ = FileIdentityOf(st);
  return true;
}

void MmapFile::Reset() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  identity_ = FileIdentity{};
}

}  // namespace mobisim
