// Per-commit result store for sweep matrices, and the one rule by which
// rows of one run merge.
//
// Layout, deliberately flat files so runs diff with standard tools:
//
//   <root>/index.jsonl                 manifest: one metadata line per run
//   <root>/<git-sha>/<spec>.jsonl      metadata header line + one row/point
//
// A run is a sweep's JSONL matrix plus its RunMeta (git SHA, spec name, spec
// fingerprint, date, host).  The manifest duplicates each run's metadata so
// tooling can enumerate the store without opening every file; Verify()
// cross-checks the two and the per-file point counts, catching truncated or
// hand-edited files.
//
// There is one way into the store, MergeRun: a run that does not exist yet
// is written, an existing one gains the incoming rows by point under
// MergeRowInto, both files are published atomically, and storing the same
// rows again changes no byte.  Every tool's `--db` reaches it through
// SinkSet (src/runner/cli_options.h).
#ifndef MOBISIM_SRC_BENCH_DB_BENCH_DB_H_
#define MOBISIM_SRC_BENCH_DB_BENCH_DB_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/result_io.h"

namespace mobisim {

// True when the row records a failed point (`_error` column present) —
// the fault subsystem's classification of a poisoned sweep point.
bool IsErrorRow(const ResultRow& row);

// 16-hex-digit FNV-1a fingerprint of the row's full rendered content.  Two
// occurrences of the same deterministic point collapse to one fingerprint;
// any difference in metadata or metrics changes it.
std::string PointFingerprint(const ResultRow& row);

struct MergeStats {
  std::size_t files = 0;
  std::size_t rows_in = 0;
  std::size_t duplicates = 0;  // exact re-occurrences collapsed
  std::size_t overridden = 0;  // _error rows replaced by a clean retry row
  std::size_t error_rows = 0;  // _error rows remaining after the merge
};

// The single conflict-resolution rule every merge shares: the store's
// MergeRun, `mobisim_sweep --merge`, the sweepd merges and the lease
// service's /done finalizer.  Rows join by their global `point` index.
// Exact duplicates collapse, a clean row replaces an `_error` row for the
// same point (a retry succeeded), never the reverse, a later `_error` row
// replaces an earlier one, and two differing clean rows is the one hard
// error (returns false with `error` set: those are not shards of the same
// deterministic sweep).
bool MergeRowInto(std::map<std::uint64_t, ResultRow>* merged, ResultRow row,
                  MergeStats* stats, std::string* error);

// The one run-file format: the `_meta` header, with `points` set to the
// row count, then one JSON row per line.
std::string RunFileText(RunMeta meta, const std::vector<ResultRow>& rows);

// Publishes RunFileText at `path` through WriteFileAtomic.  False with
// `error` set on failure, leaving any old file whole.
bool WriteRunFile(const std::string& path, const RunMeta& meta,
                  const std::vector<ResultRow>& rows, std::string* error);

// One run read back from disk.  `has_meta` is false for bare JSONL written
// without a header (e.g. mobisim_sweep --jsonl before this store existed);
// such files still diff, but spec compatibility cannot be verified.
struct StoredRun {
  RunMeta meta;
  bool has_meta = false;
  std::vector<ResultRow> rows;  // data rows only, in point order
};

// Parses a JSONL run file: an optional leading metadata line, then data rows.
// Metadata lines after the first line are rejected as malformed.
std::optional<StoredRun> LoadRunFile(const std::string& path, std::string* error);

class BenchDb {
 public:
  explicit BenchDb(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }

  // Path a run with this identity lands at (whether or not it exists yet).
  std::string RunPath(const std::string& git_sha, const std::string& spec_name) const;

  // Stores `rows` as the run (meta.git_sha, meta.spec_name).  The SHA and
  // the name must be plain path components, checked before any path is
  // built.  A run that does not exist yet is written with meta as its
  // header.  An existing run must carry the same spec fingerprint (a
  // different one is refused, naming both); its rows and the incoming ones
  // fold through MergeRowInto by point, it keeps its original header but
  // for `points`, and its manifest entry is replaced in place.  Both files
  // are published atomically and only when their bytes change, so storing
  // the same rows twice changes nothing.  Returns the run file's path, or
  // nullopt with `error` set (the store is then untouched).
  std::optional<std::string> MergeRun(const RunMeta& meta, const std::vector<ResultRow>& rows,
                                      std::string* error);

  // All manifest entries, oldest first.  Missing index file -> empty store.
  std::vector<RunMeta> ReadIndex(std::string* error) const;

  // Most recent manifest entry for `spec_name`, optionally skipping one SHA
  // (a PR diffing against the store excludes its own candidate run).
  std::optional<RunMeta> FindLatest(const std::string& spec_name,
                                    const std::string& exclude_sha = "") const;

  // Integrity check over the whole store: every manifest entry's file exists,
  // its header matches the manifest (sha, spec name, spec hash), and the data
  // row count matches `points`.  Returns false with the first mismatch.
  bool Verify(std::string* error) const;

 private:
  std::string root_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_BENCH_DB_BENCH_DB_H_
