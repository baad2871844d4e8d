// Merging shard JSONL outputs back into one run.
//
// The sharding contract (src/runner/experiment_spec.h: FilterShard) keeps
// point indices global, and every point's row is deterministic, so merging
// is pure bookkeeping: collect rows, order by global point index, and
// deduplicate by point fingerprint.  Duplicates appear legitimately — a
// shard re-run after a worker death, a retry of individual `_error` points,
// the same directory merged twice — and always resolve by MergeRowInto
// (src/bench_db/bench_db.h), the rule the result store merges by too.
//
// This one code path serves `mobisim_sweep --merge`, the sweepd dispatcher's
// final and incremental merges, and the `GET /results` live view.  A merged
// run reaches the store the way every run does: through SinkSet's `--db`.
#ifndef MOBISIM_SRC_SWEEPD_MERGE_H_
#define MOBISIM_SRC_SWEEPD_MERGE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/bench_db/bench_db.h"
#include "src/core/result_io.h"

namespace mobisim {

class Spool;

// Data rows of a possibly torn streamed JSONL file: malformed lines (a
// crash mid-write leaves at most one, at the tail) and metadata headers are
// skipped instead of failing the load.  This is how a worker resumes from a
// dead predecessor's partial output.
std::vector<ResultRow> LoadPartialRows(const std::string& path);

struct MergedRun {
  std::string spec_hash;  // consistent across all inputs that declared one
  std::vector<ResultRow> rows;  // global point-index order
  MergeStats stats;
  // The grid's optional column groups, for the header of a CSV with no
  // clean rows: a spool's spec's, else those the shards' metadata declare.
  ColumnGroups columns;
};

// Merges complete shard run files (each an optional metadata header plus
// data rows).  Files carrying different spec fingerprints refuse to merge;
// the merged run's columns are every group a file's metadata names.
std::optional<MergedRun> MergeShardFiles(const std::vector<std::string>& files,
                                         std::string* error);

// Merges a directory of shard outputs: a spool root (its done/*.jsonl, and
// `columns` from its spec), a spool's done/ directory itself, or a flat
// directory of `mobisim_sweep --shard` JSONL files (`columns` from their
// metadata).
std::optional<MergedRun> MergeShardDir(const std::string& dir, std::string* error);

// Live view of a spool mid-run: done rows plus the streamed partial rows of
// running attempts.  Tolerant by construction (partial files may be torn).
MergedRun MergeSpoolLive(const Spool& spool);

struct CliOptions;

// Exports a merged run everywhere the common CLI flags ask: an optional
// run file at `merged_path` (WriteRunFile), the --jsonl/--csv/--db sinks,
// and JSONL on stdout when nothing else was requested.  `tool` prefixes
// the summary lines.  Returns a process exit status (0 on success).  One function so
// `mobisim_sweep --merge` and `mobisim_sweepd merge`/`serve` cannot drift.
int ExportMergedRun(const MergedRun& merged, const CliOptions& common,
                    const std::string& run_name, const std::string& merged_path,
                    const char* tool);

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_MERGE_H_
