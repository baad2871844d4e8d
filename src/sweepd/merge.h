// Merging shard JSONL outputs back into one run.
//
// The sharding contract (src/runner/experiment_spec.h: FilterShard) keeps
// point indices global, and every point's row is deterministic, so merging
// is pure bookkeeping: collect rows, order by global point index, and
// deduplicate by point fingerprint.  Duplicates appear legitimately — a
// shard re-run after a worker death, a retry of individual `_error` points,
// the same directory merged twice — and always resolve the same way: exact
// duplicates collapse, a clean row replaces an `_error` row for the same
// point (a retry succeeded), an `_error` row never replaces a clean one,
// and two differing clean rows for one point is a hard error (those are not
// shards of the same sweep).
//
// This one code path serves `mobisim_sweep --merge`, the sweepd dispatcher's
// final and incremental merges, and the `GET /results` live view.
#ifndef MOBISIM_SRC_SWEEPD_MERGE_H_
#define MOBISIM_SRC_SWEEPD_MERGE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/result_io.h"

namespace mobisim {

class Spool;

// True when the row records a failed point (`_error` column present) —
// the fault subsystem's classification of a poisoned sweep point.
bool IsErrorRow(const ResultRow& row);

// 16-hex-digit FNV-1a fingerprint of the row's full rendered content.  Two
// occurrences of the same deterministic point collapse to one fingerprint;
// any difference in metadata or metrics changes it.
std::string PointFingerprint(const ResultRow& row);

// Data rows of a possibly torn streamed JSONL file: malformed lines (a
// crash mid-write leaves at most one, at the tail) and metadata headers are
// skipped instead of failing the load.  This is how a worker resumes from a
// dead predecessor's partial output.
std::vector<ResultRow> LoadPartialRows(const std::string& path);

struct MergeStats {
  std::size_t files = 0;
  std::size_t rows_in = 0;
  std::size_t duplicates = 0;  // exact re-occurrences collapsed
  std::size_t overridden = 0;  // _error rows replaced by a clean retry row
  std::size_t error_rows = 0;  // _error rows remaining after the merge
};

// The single conflict-resolution rule every merge entry point shares (and
// the lease service's /done finalizer): exact duplicates collapse, a clean
// row replaces an `_error` row for the same point, never the reverse, and
// two differing clean rows is the one hard error (returns false with
// `error` set).  `merged` is keyed by global point index.
bool MergeRowInto(std::map<std::uint64_t, ResultRow>* merged, ResultRow row,
                  MergeStats* stats, std::string* error);

struct MergedRun {
  std::string spec_hash;  // consistent across all inputs that declared one
  std::vector<ResultRow> rows;  // global point-index order
  MergeStats stats;
};

// Merges complete shard run files (each an optional metadata header plus
// data rows).  Files carrying different spec fingerprints refuse to merge.
std::optional<MergedRun> MergeShardFiles(const std::vector<std::string>& files,
                                         std::string* error);

// Merges a directory of shard outputs: a spool root (its done/*.jsonl), a
// spool's done/ directory itself, or a flat directory of
// `mobisim_sweep --shard` JSONL files.
std::optional<MergedRun> MergeShardDir(const std::string& dir, std::string* error);

// Live view of a spool mid-run: done rows plus the streamed partial rows of
// running attempts.  Tolerant by construction (partial files may be torn).
MergedRun MergeSpoolLive(const Spool& spool);

struct CliOptions;

// Exports a merged run everywhere the common CLI flags ask: an optional
// JSONL file at `merged_path` (atomic, with a metadata header), the
// --jsonl/--csv sinks, JSONL on stdout when nothing else was requested,
// and an idempotent bench_db merge for --db.  `tool` prefixes the summary
// lines.  Returns a process exit status (0 on success).  One function so
// `mobisim_sweep --merge` and `mobisim_sweepd merge`/`serve` cannot drift.
int ExportMergedRun(const MergedRun& merged, const CliOptions& common,
                    const std::string& run_name, const std::string& merged_path,
                    const char* tool);

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_MERGE_H_
