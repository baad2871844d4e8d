// Shared command-line surface of the mobisim tools.
//
// mobisim_bench, mobisim_sweep and mobisim_cli accept one common set of
// export and execution flags:
//
//   --jobs N | --serial      worker threads for the sweep engine
//   --seed N                 workload-generator seed override
//   --replicas N             independent re-runs per grid cell
//   --jsonl FILE|-           one JSON object per row (metadata header first)
//   --csv FILE|-             fixed-schema CSV
//   --db DIR                 merge the run into a bench_db result store
//   --name NAME              run name inside the store (required with --db)
//   --sha SHA                commit id for the store (default: $GITHUB_SHA,
//                            then $MOBISIM_GIT_SHA, then "local")
//   --trace-cache DIR        persistent trace cache directory (default:
//                            $MOBISIM_TRACE_CACHE; empty = disabled)
//   --no-trace-cache         disable the trace cache even if the env is set
//   --quiet                  suppress progress and summaries on stderr
//
// ExtractCommonFlags pulls these out of an argument list, leaving
// tool-specific tokens behind, so the three tools cannot drift apart again.
// SinkSet turns parsed options into ready-to-use streaming ResultSinks —
// the open-file/metadata-header/tee wiring previously duplicated in every
// bench main() — and is the one caller of BenchDb::MergeRun: every tool's
// `--db` lands through it.
#ifndef MOBISIM_SRC_RUNNER_CLI_OPTIONS_H_
#define MOBISIM_SRC_RUNNER_CLI_OPTIONS_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/result_io.h"
#include "src/runner/result_sink.h"

namespace mobisim {

class TraceCache;

struct CliOptions {
  std::size_t jobs = 0;  // 0 = one worker per hardware core; 1 = serial
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> replicas;
  std::string jsonl_path;  // empty = no JSONL sink; "-" = stdout
  std::string csv_path;    // empty = no CSV sink; "-" = stdout
  std::string db_root;     // empty = no result store
  std::string db_name;
  std::string git_sha;  // filled from the environment by ExtractCommonFlags
  // Persistent trace cache directory; empty = disabled.  ExtractCommonFlags
  // fills it from --trace-cache, falling back to $MOBISIM_TRACE_CACHE
  // unless --no-trace-cache was given.
  std::string trace_cache_dir;
  bool quiet = false;

  // True when any export destination (file, stdout, or store) was requested.
  bool wants_export() const {
    return !jsonl_path.empty() || !csv_path.empty() || !db_root.empty();
  }
};

// Removes every common flag (and its argument) from `args`, leaving
// tool-specific tokens in their original order.  Returns false with a
// message in `error` on a malformed flag (missing argument, bad number,
// --db without --name); the caller prints its own usage.
bool ExtractCommonFlags(std::vector<std::string>* args, CliOptions* options,
                        std::string* error);

// The usage fragment describing the common flags, for per-tool usage text.
const char* CommonFlagsUsage();

// Parses a `K/N` shard designator strictly: both sides must be plain
// digits, N > 0 and K < N.  Anything else returns false with a message in
// `error` naming exactly what is wrong — a bad shard must be a loud usage
// error, never a silently empty or wrong shard.  Shared by mobisim_sweep
// --shard and the sweepd work-item splitter.
bool ParseShardSpec(const std::string& text, std::size_t* shard,
                    std::size_t* shards, std::string* error);

// Opens the persistent trace cache the options ask for; null when disabled.
// The directory is created lazily on first store, so a bad path degrades to
// generating every trace rather than failing the run.
std::unique_ptr<TraceCache> OpenTraceCache(const CliOptions& options);

// ISO-8601 UTC timestamp (second resolution) and host name, for RunMeta.
std::string NowUtc();
std::string HostName();
// $GITHUB_SHA, then $MOBISIM_GIT_SHA, then "local".
std::string DefaultGitSha();

// The export destinations a CliOptions asks for, opened and owned in one
// place.  JSONL files start with the RunMeta header line; CSV sinks carry
// `csv_header` so even an empty run emits a well-formed table; with --db a
// collector keeps every row for the store.
class SinkSet {
 public:
  SinkSet() = default;
  ~SinkSet() { CloseSinks(); }
  SinkSet(const SinkSet&) = delete;
  SinkSet& operator=(const SinkSet&) = delete;

  // Opens the requested sinks ("-" = stdout) and, with options.db_root
  // set, a collector that takes every row, `_error` and dynamic rows
  // included.  Returns false with `error` when a file cannot be opened.
  // Safe to call on options with no export destinations (sinks() is then
  // empty).
  bool Open(const CliOptions& options, const RunMeta& meta,
            const std::string& csv_header, std::string* error);

  // Adds a CSV sink on stdout; mobisim_sweep's default when the caller
  // requested no destination at all.
  void AddStdoutCsv(const std::string& csv_header);

  // Borrowed pointers, valid until this SinkSet is destroyed.
  const std::vector<ResultSink*>& sinks() const { return sinks_; }

  // Finishes every sink exactly once (flush, default CSV header on empty
  // runs), closes the files and, with --db, merges the collected rows into
  // the store through BenchDb::MergeRun.  Reports the stored path (unless
  // quiet) or the store's refusal on stderr, prefixed with `tool`, and
  // returns false on a refusal so the tool exits 1.  The destructor only
  // closes the sinks: a run abandoned on an error path never reaches the
  // store.
  bool Finish(const char* tool);

 private:
  void CloseSinks();

  std::ofstream jsonl_file_;
  std::ofstream csv_file_;
  std::unique_ptr<JsonlResultSink> jsonl_;
  std::unique_ptr<CsvResultSink> csv_;
  std::unique_ptr<VectorResultSink> store_rows_;  // with --db only
  std::string db_root_;
  RunMeta meta_;
  bool quiet_ = false;
  std::vector<ResultSink*> sinks_;
  bool finished_ = false;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_RUNNER_CLI_OPTIONS_H_
