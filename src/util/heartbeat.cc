#include "src/util/heartbeat.h"

#include <sstream>

#include <sys/stat.h>
#include <time.h>

#include "src/util/atomic_file.h"
#include "src/util/parse.h"

namespace mobisim {

bool WriteHeartbeat(const std::string& path, const HeartbeatRecord& record,
                    std::string* error) {
  std::ostringstream body;
  body << record.counter << " " << record.owner << "\n";
  return WriteFileAtomic(path, body.str(), error);
}

std::optional<HeartbeatRecord> ReadHeartbeat(const std::string& path) {
  std::string data;
  if (!ReadFileToString(path, &data)) {
    return std::nullopt;
  }
  std::istringstream in(data);
  std::string counter_text;
  std::string owner_text;
  if (!(in >> counter_text >> owner_text)) {
    return std::nullopt;
  }
  const auto counter = ParseUint64(counter_text);
  const auto owner = ParseUint64(owner_text);
  if (!counter || !owner) {
    return std::nullopt;
  }
  return HeartbeatRecord{*counter, *owner};
}

std::optional<double> SecondsSinceModified(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    return std::nullopt;
  }
  timespec now{};
  clock_gettime(CLOCK_REALTIME, &now);
  const double modified = static_cast<double>(st.st_mtim.tv_sec) +
                          static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
  const double current = static_cast<double>(now.tv_sec) +
                         static_cast<double>(now.tv_nsec) * 1e-9;
  // A file touched "in the future" (clock skew on a shared filesystem) reads
  // as freshly modified rather than as negative staleness.
  return current > modified ? current - modified : 0.0;
}

}  // namespace mobisim
