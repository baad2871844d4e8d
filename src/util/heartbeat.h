// Heartbeat files: how a worker process proves it is still alive.
//
// A lease-based dispatcher cannot ask a dead process anything, so liveness
// is written to the shared filesystem instead: every interval the worker's
// POST /heartbeat has the lease service (src/sweepd/lease.h) rewrite a small
// file, and the dispatcher compares the file's mtime against the lease
// deadline.  The file body carries a progress counter and an owner
// id, so the dispatcher can also detect "my spawned worker with pid P died"
// without waiting out the full lease.
//
// Writes go through WriteFileAtomic, so a reader never sees a torn
// heartbeat even if the writer is killed mid-write.
#ifndef MOBISIM_SRC_UTIL_HEARTBEAT_H_
#define MOBISIM_SRC_UTIL_HEARTBEAT_H_

#include <cstdint>
#include <optional>
#include <string>

namespace mobisim {

struct HeartbeatRecord {
  std::uint64_t counter = 0;  // progress units completed (e.g. rows written)
  std::uint64_t owner = 0;    // writer's id (pid for spawned workers)
};

// Writes `record` to `path` atomically.  False with `error` set on failure.
bool WriteHeartbeat(const std::string& path, const HeartbeatRecord& record,
                    std::string* error = nullptr);

// Parses a heartbeat file; nullopt when missing or malformed.
std::optional<HeartbeatRecord> ReadHeartbeat(const std::string& path);

// Seconds since `path` was last modified; nullopt when the file is missing.
// This is the dispatcher's staleness test for lease expiry.
std::optional<double> SecondsSinceModified(const std::string& path);

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_HEARTBEAT_H_
