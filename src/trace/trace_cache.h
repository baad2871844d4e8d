// Persistent, fingerprint-keyed cache of generated block traces.
//
// The paper's methodology (section 4.1) fixes the workload traces once and
// reuses them across every device/configuration point; this cache gives
// repeated sweeps the same discipline across *processes*.  A generated
// trace is stored under `<dir>/<fingerprint>.mtc`, where the fingerprint is
// the 64-bit FNV-1a hash of a canonical rendering of the full workload
// configuration (every generator parameter, not just the name), the scale,
// the seed, and the trace-format version — so any change to the generators,
// the block mapper, or the entry format invalidates old entries instead of
// silently replaying stale traces.
//
// An entry is the trace's `.mtc` v2 image (trace_image.h, DESIGN.md
// section 8), built once at generation and written as it is.  Entries are
// written atomically (unique temp file + fsync + rename, see
// src/util/atomic_file.h) and carry a hash footer; readers validate it and
// treat a torn or corrupted entry as a miss, delete it, and let the caller
// regenerate.  Concurrent writers are safe: last rename wins and every
// intermediate state is a complete, valid file.  A cached load is
// bit-identical to generation, so results are byte-identical with the cache
// on, off, cold, or warm.
//
// LoadView maps a valid entry and hands its columns to the simulator in
// place — zero copies, zero per-record parsing — as a TraceView.  An entry
// that cannot be addressed in place is copied into an owned image instead;
// corrupt entries are dropped and regenerated.  Each entry file is hashed
// once per cache object: a mapping whose file identity (util/atomic_file.h)
// is the one this cache last validated, or wrote itself, under that
// fingerprint skips the validator.  Entries are only ever replaced by
// rename, so an unchanged identity means unchanged bytes.
#ifndef MOBISIM_SRC_TRACE_TRACE_CACHE_H_
#define MOBISIM_SRC_TRACE_TRACE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/trace_image.h"
#include "src/trace/trace_record.h"
#include "src/trace/trace_view.h"
#include "src/util/atomic_file.h"

namespace mobisim {

// Canonical key text for a named workload at (scale, seed): the format
// version plus every parameter of the generator configuration the workload
// name resolves to, rendered round-trip-exactly.  `format_version` is a
// parameter so tests can prove that a version bump invalidates.
std::string CanonicalTraceKeyText(const std::string& workload, double scale,
                                  std::uint64_t seed,
                                  std::uint32_t format_version = kTraceCacheFormatVersion);

// 16-hex-digit FNV-1a fingerprint of CanonicalTraceKeyText.
std::string TraceCacheFingerprint(const std::string& workload, double scale,
                                  std::uint64_t seed,
                                  std::uint32_t format_version = kTraceCacheFormatVersion);

// Counts are per lookup.  A sweep (RunSweep) looks a trace up once per
// residency, not once per distinct trace: up front, and again at each use
// that re-maps it after it was dropped.  So a sweep whose reuses of a trace
// lie further apart than its threads counts several hits and views for it.
struct TraceCacheStats {
  std::uint64_t hits = 0;      // entries loaded from disk
  std::uint64_t misses = 0;    // lookups that required generation
  std::uint64_t stores = 0;    // entries written
  std::uint64_t corrupt = 0;   // invalid entries detected (and removed)
  std::uint64_t errors = 0;    // store failures (cache stayed best-effort)
  std::uint64_t views = 0;     // zero-copy mmap loads (no payload copy)
  std::uint64_t copies = 0;    // copying loads (LoadView's fallback)
  std::uint64_t validated = 0;  // entries hashed by ValidateEntry
};

// The persistent cache directory.  Thread-safe: LoadView/Store may be called
// concurrently from sweep workers (stats are atomic, writes are atomic
// renames of unique temp files).  All failures are soft — a missing or
// unwritable directory degrades to generating every trace, never to a
// failed run.
class TraceCache {
 public:
  explicit TraceCache(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string EntryPath(const std::string& fingerprint) const;

  // Maps the entry, validates it in place (ValidateEntry) unless this cache
  // already validated or wrote this very file, and returns a TraceView
  // whose columns point into the mapping (counts `views`).  An entry that
  // cannot be mapped or addressed in place is read into an owned image
  // instead — identical data, counts `copies`.  A corrupted or torn
  // entry is removed and reported as a (corrupt) miss; the returned view is
  // then empty, as it is for a plain miss.
  TraceView LoadView(const std::string& fingerprint);

  // Writes the image under the fingerprint as it is, creating the cache
  // directory if needed, and remembers the written file as valid.
  // Best-effort: returns false (and counts `errors`) on failure.
  bool Store(const std::string& fingerprint, const TraceImage& image,
             std::string* error = nullptr);

  TraceCacheStats stats() const;
  // One-line summary for the drivers' stderr reporting, e.g.
  //   trace-cache: hits=12 misses=0 stores=0 corrupt=0 errors=0 views=12 copies=0
  //   validated=6 dir=/x
  // (one line).  CI greps it: `misses=0 stores=0 corrupt=0 errors=0` proves
  // a warm run generated nothing, `copies=0` that no cached payload was
  // copied, and a `validated` no larger than the entry count that no file
  // was hashed twice.
  std::string StatsLine() const;

 private:
  // Whether `identity` is the file last validated or stored under
  // `fingerprint`; Remember records it.
  bool KnownValid(const std::string& fingerprint, const FileIdentity& identity);
  void Remember(const std::string& fingerprint, const FileIdentity& identity);

  std::string dir_;
  std::mutex known_mu_;
  std::unordered_map<std::string, FileIdentity> known_valid_;  // by fingerprint
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> views_{0};
  std::atomic<std::uint64_t> copies_{0};
  std::atomic<std::uint64_t> validated_{0};
};

// The one code path every consumer shares: load the (workload, scale, seed)
// trace from `cache`, or generate it, build its image once, store that, and
// adopt it.  `cache` may be null (plain generation).  A warm cache yields an
// mmap-backed zero-copy view; the view's data is bit-identical however it
// was produced.  Exceptions from unknown workload names propagate exactly
// as GenerateNamedWorkload's do.
TraceView LoadOrGenerateTraceView(TraceCache* cache, const std::string& workload,
                                  double scale, std::uint64_t seed);

// Maintenance view of a cache directory (the `trace-cache stats` / `gc`
// subcommands of mobisim_bench).
struct TraceCacheEntry {
  std::string fingerprint;
  std::string path;
  std::uint64_t bytes = 0;
  std::int64_t mtime = 0;  // seconds since epoch, for age-ordered eviction
  bool valid = false;      // passed ValidateEntry, in place
};

// Lists `<dir>/*.mtc`, validating each entry; empty for a missing dir.
std::vector<TraceCacheEntry> ListTraceCache(const std::string& dir);

struct TraceCacheGcResult {
  std::size_t removed = 0;
  std::size_t kept = 0;
  std::uint64_t removed_bytes = 0;
  std::uint64_t kept_bytes = 0;
};

// Deletes every invalid entry and any leftover temp files, then evicts the
// oldest valid entries until the directory holds at most `max_bytes`
// (0 = no size limit, invalid-entry cleanup only).
TraceCacheGcResult GcTraceCache(const std::string& dir, std::uint64_t max_bytes);

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_TRACE_CACHE_H_
