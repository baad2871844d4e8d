#include "src/sweepd/merge.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "src/bench_db/bench_db.h"
#include "src/runner/cli_options.h"
#include "src/runner/sweep_runner.h"
#include "src/sweepd/spool.h"

namespace mobisim {

namespace {

namespace fs = std::filesystem;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

MergedRun Finalize(std::map<std::uint64_t, ResultRow> merged, MergeStats stats,
                   std::string spec_hash) {
  MergedRun run;
  run.spec_hash = std::move(spec_hash);
  run.stats = stats;
  run.rows.reserve(merged.size());
  for (auto& [index, row] : merged) {
    (void)index;
    if (IsErrorRow(row)) {
      ++run.stats.error_rows;
    }
    run.rows.push_back(std::move(row));
  }
  return run;
}

}  // namespace

std::vector<ResultRow> LoadPartialRows(const std::string& path) {
  std::vector<ResultRow> rows;
  std::ifstream in(path);
  if (!in) {
    return rows;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::string parse_error;
    auto row = RowFromJson(line, &parse_error);
    if (!row || IsMetaRow(*row) || !row->Uint("point")) {
      continue;  // torn tail of a crashed writer, or a header: not data
    }
    rows.push_back(std::move(*row));
  }
  return rows;
}

std::optional<MergedRun> MergeShardFiles(const std::vector<std::string>& files,
                                         std::string* error) {
  std::map<std::uint64_t, ResultRow> merged;
  MergeStats stats;
  std::string spec_hash;
  ColumnGroups columns;
  for (const std::string& file : files) {
    ++stats.files;
    std::string load_error;
    auto run = LoadRunFile(file, &load_error);
    if (!run) {
      SetError(error, load_error);
      return std::nullopt;
    }
    if (run->has_meta && !run->meta.spec_hash.empty()) {
      if (spec_hash.empty()) {
        spec_hash = run->meta.spec_hash;
      } else if (spec_hash != run->meta.spec_hash) {
        SetError(error, file + ": spec fingerprint " + run->meta.spec_hash +
                            " disagrees with " + spec_hash +
                            "; these shards come from different experiments");
        return std::nullopt;
      }
    }
    if (run->has_meta) {
      columns = columns | run->meta.columns;
    }
    for (ResultRow& row : run->rows) {
      std::string merge_error;
      if (!MergeRowInto(&merged, std::move(row), &stats, &merge_error)) {
        SetError(error, file + ": " + merge_error);
        return std::nullopt;
      }
    }
  }
  MergedRun run = Finalize(std::move(merged), stats, std::move(spec_hash));
  run.columns = columns;
  return run;
}

std::optional<MergedRun> MergeShardDir(const std::string& dir, std::string* error) {
  std::error_code ec;
  // A spool root points at its done/ directory and holds the grid's spec;
  // anything else is taken as a flat directory of shard JSONL files.
  std::string scan = dir;
  const auto spec = Spool(dir).LoadSpec(nullptr);
  if (fs::is_directory(dir + "/done", ec)) {
    scan = dir + "/done";
  }
  std::vector<std::string> files;
  fs::directory_iterator it(scan, ec);
  if (ec) {
    SetError(error, "cannot list " + scan + ": " + ec.message());
    return std::nullopt;
  }
  for (const auto& entry : it) {
    if (entry.path().extension() == ".jsonl") {
      files.push_back(entry.path().string());
    }
  }
  if (files.empty()) {
    SetError(error, "no .jsonl shard outputs in " + scan);
    return std::nullopt;
  }
  std::sort(files.begin(), files.end());
  auto run = MergeShardFiles(files, error);
  if (run && spec) {
    run->columns = ColumnGroupsOf(*spec);
  }
  return run;
}

MergedRun MergeSpoolLive(const Spool& spool) {
  std::map<std::uint64_t, ResultRow> merged;
  MergeStats stats;
  std::string spec_hash;
  for (const std::string& id : spool.ListIds("done")) {
    ++stats.files;
    for (ResultRow& row : LoadPartialRows(spool.RowsPath(id))) {
      std::string ignored;
      MergeRowInto(&merged, std::move(row), &stats, &ignored);
    }
  }
  for (const std::string& id : spool.ListIds("running")) {
    for (const std::string& part : spool.PartPaths(id)) {
      ++stats.files;
      for (ResultRow& row : LoadPartialRows(part)) {
        std::string ignored;
        MergeRowInto(&merged, std::move(row), &stats, &ignored);
      }
    }
  }
  return Finalize(std::move(merged), stats, std::move(spec_hash));
}

int ExportMergedRun(const MergedRun& merged, const CliOptions& common,
                    const std::string& run_name, const std::string& merged_path,
                    const char* tool) {
  RunMeta meta;
  meta.spec_name = run_name;
  meta.spec_hash = merged.spec_hash;
  meta.git_sha = common.git_sha.empty() ? DefaultGitSha() : common.git_sha;
  meta.created = NowUtc();
  meta.host = HostName();
  meta.points = merged.rows.size();
  meta.columns = merged.columns;

  std::string error;
  if (!merged_path.empty() && !WriteRunFile(merged_path, meta, merged.rows, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  SinkSet sinks;
  if (!sinks.Open(common, meta, SweepCsvHeader(merged.columns), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // With no destination at all, the run file goes to stdout: the merged run
  // IS the output of a merge, not a side effect.
  if (sinks.sinks().empty() && merged_path.empty()) {
    std::cout << RunFileText(meta, merged.rows) << std::flush;
  }
  for (ResultSink* sink : sinks.sinks()) {
    for (const ResultRow& row : merged.rows) {
      if (IsErrorRow(row) && !sink->AcceptsErrorRows()) {
        continue;
      }
      sink->Write(row);
    }
  }
  if (!sinks.Finish(tool)) {
    return 1;
  }
  if (!common.quiet) {
    std::fprintf(stderr,
                 "%s: %zu rows merged (%zu files, %zu duplicates collapsed, "
                 "%zu error rows)\n",
                 tool, merged.rows.size(), merged.stats.files,
                 merged.stats.duplicates, merged.stats.error_rows);
  }
  return 0;
}

}  // namespace mobisim
