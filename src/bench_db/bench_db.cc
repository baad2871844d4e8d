#include "src/bench_db/bench_db.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "src/util/atomic_file.h"
#include "src/util/hash.h"

namespace mobisim {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

// SHA and spec name become path components; reject anything that could
// escape the store or collide with the manifest.
bool SafePathComponent(const std::string& s) {
  if (s.empty() || s == "." || s == ".." || s == "index") {
    return false;
  }
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool IsErrorRow(const ResultRow& row) { return row.Find("_error") != nullptr; }

std::string PointFingerprint(const ResultRow& row) {
  return HexU64(Fnv1a64(RowToJson(row)));
}

bool MergeRowInto(std::map<std::uint64_t, ResultRow>* merged, ResultRow row,
                  MergeStats* stats, std::string* error) {
  const auto index = row.Uint("point");
  if (!index) {
    SetError(error, "data row without a global point index cannot be merged");
    return false;
  }
  ++stats->rows_in;
  const auto it = merged->find(*index);
  if (it == merged->end()) {
    merged->emplace(*index, std::move(row));
    return true;
  }
  if (PointFingerprint(it->second) == PointFingerprint(row)) {
    ++stats->duplicates;  // the same deterministic row seen again
    return true;
  }
  const bool stored_error = IsErrorRow(it->second);
  const bool incoming_error = IsErrorRow(row);
  if (stored_error && !incoming_error) {
    it->second = std::move(row);  // a retry succeeded
    ++stats->overridden;
    return true;
  }
  if (!stored_error && incoming_error) {
    ++stats->duplicates;  // stale failure after a success: keep the success
    return true;
  }
  if (stored_error) {
    it->second = std::move(row);  // both failed: keep the later attempt's message
    ++stats->duplicates;
    return true;
  }
  SetError(error, "point " + std::to_string(*index) +
                      ": conflicting non-error rows; the inputs are not shards "
                      "of the same deterministic sweep");
  return false;
}

std::string RunFileText(RunMeta meta, const std::vector<ResultRow>& rows) {
  meta.points = rows.size();
  std::string text = RowToJson(MetaToRow(meta)) + "\n";
  for (const ResultRow& row : rows) {
    text += RowToJson(row);
    text += '\n';
  }
  return text;
}

bool WriteRunFile(const std::string& path, const RunMeta& meta,
                  const std::vector<ResultRow>& rows, std::string* error) {
  return WriteFileAtomic(path, RunFileText(meta, rows), error);
}

std::optional<StoredRun> LoadRunFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  StoredRun run;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    std::string parse_error;
    auto row = RowFromJson(line, &parse_error);
    if (!row) {
      SetError(error, path + ":" + std::to_string(line_no) + ": " + parse_error);
      return std::nullopt;
    }
    if (IsMetaRow(*row)) {
      if (line_no != 1) {
        SetError(error, path + ":" + std::to_string(line_no) +
                            ": metadata line not at start of file");
        return std::nullopt;
      }
      const auto meta = MetaFromRow(*row);
      if (!meta) {
        SetError(error, path + ":1: metadata 'points' is not a "
                               "non-negative integer");
        return std::nullopt;
      }
      run.meta = *meta;
      run.has_meta = true;
      continue;
    }
    run.rows.push_back(std::move(*row));
  }
  return run;
}

std::string BenchDb::RunPath(const std::string& git_sha,
                             const std::string& spec_name) const {
  return root_ + "/" + git_sha + "/" + spec_name + ".jsonl";
}

std::optional<std::string> BenchDb::MergeRun(const RunMeta& meta,
                                             const std::vector<ResultRow>& rows,
                                             std::string* error) {
  // Names first: nothing outside the root may be read or written.
  if (!SafePathComponent(meta.git_sha)) {
    SetError(error, "bad git sha '" + meta.git_sha + "' for a store path");
    return std::nullopt;
  }
  if (!SafePathComponent(meta.spec_name)) {
    SetError(error, "bad spec name '" + meta.spec_name + "' for a store path");
    return std::nullopt;
  }
  const std::string path = RunPath(meta.git_sha, meta.spec_name);
  const std::string index_path = root_ + "/index.jsonl";
  std::string index_error;
  std::vector<RunMeta> entries = ReadIndex(&index_error);
  if (!index_error.empty()) {
    SetError(error, index_error);
    return std::nullopt;
  }

  RunMeta header = meta;
  std::map<std::uint64_t, ResultRow> merged;
  MergeStats stats;
  std::string merge_error;
  std::string stored_text;  // stays empty for a new run
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::string load_error;
    auto stored = LoadRunFile(path, &load_error);
    if (!stored || !ReadFileToString(path, &stored_text, &load_error)) {
      SetError(error, "merge target " + path + ": " + load_error);
      return std::nullopt;
    }
    if (stored->has_meta) {
      if (!meta.spec_hash.empty() && stored->meta.spec_hash != meta.spec_hash) {
        SetError(error, path + ": spec fingerprint mismatch (stored " +
                            stored->meta.spec_hash + ", incoming " + meta.spec_hash +
                            "); refusing to merge rows of a different experiment");
        return std::nullopt;
      }
      header = stored->meta;  // the run keeps its identity (created, host)
    }
    for (ResultRow& row : stored->rows) {
      if (!MergeRowInto(&merged, std::move(row), &stats, &merge_error)) {
        SetError(error, path + ": " + merge_error);
        return std::nullopt;
      }
    }
  }
  for (const ResultRow& row : rows) {
    if (!MergeRowInto(&merged, row, &stats, &merge_error)) {
      SetError(error, "storing " + path + ": " + merge_error);
      return std::nullopt;
    }
  }
  std::vector<ResultRow> run_rows;
  run_rows.reserve(merged.size());
  for (auto& [index, row] : merged) {
    (void)index;
    run_rows.push_back(std::move(row));
  }
  header.points = run_rows.size();

  const std::string text = RunFileText(header, run_rows);
  if (text != stored_text) {
    std::filesystem::create_directories(root_ + "/" + meta.git_sha, ec);
    if (ec) {
      SetError(error, "cannot create " + root_ + "/" + meta.git_sha + ": " + ec.message());
      return std::nullopt;
    }
    if (!WriteFileAtomic(path, text, error)) {
      return std::nullopt;
    }
  }

  // One manifest line per run, replaced in place; a second line for the
  // same run (left by an older store) is dropped.
  std::string index_text;
  bool listed = false;
  for (RunMeta& entry : entries) {
    if (entry.git_sha == meta.git_sha && entry.spec_name == meta.spec_name) {
      if (listed) {
        continue;
      }
      entry = header;
      listed = true;
    }
    index_text += RowToJson(MetaToRow(entry)) + "\n";
  }
  if (!listed) {
    index_text += RowToJson(MetaToRow(header)) + "\n";
  }
  std::string stored_index;
  ReadFileToString(index_path, &stored_index);  // a new store has none
  if (index_text != stored_index && !WriteFileAtomic(index_path, index_text, error)) {
    return std::nullopt;
  }
  return path;
}

std::vector<RunMeta> BenchDb::ReadIndex(std::string* error) const {
  std::vector<RunMeta> entries;
  std::ifstream in(root_ + "/index.jsonl");
  if (!in) {
    return entries;  // no index yet: an empty store, not an error
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    std::string parse_error;
    const auto row = RowFromJson(line, &parse_error);
    const auto meta = row ? MetaFromRow(*row) : std::nullopt;
    if (!meta) {
      SetError(error, root_ + "/index.jsonl:" + std::to_string(line_no) +
                          ": not a metadata line" +
                          (parse_error.empty() ? "" : " (" + parse_error + ")"));
      continue;
    }
    entries.push_back(*meta);
  }
  return entries;
}

std::optional<RunMeta> BenchDb::FindLatest(const std::string& spec_name,
                                           const std::string& exclude_sha) const {
  const std::vector<RunMeta> entries = ReadIndex(nullptr);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->spec_name == spec_name &&
        (exclude_sha.empty() || it->git_sha != exclude_sha)) {
      return *it;
    }
  }
  return std::nullopt;
}

bool BenchDb::Verify(std::string* error) const {
  std::string index_error;
  const std::vector<RunMeta> entries = ReadIndex(&index_error);
  if (!index_error.empty()) {
    SetError(error, index_error);
    return false;
  }
  for (const RunMeta& entry : entries) {
    const std::string path = RunPath(entry.git_sha, entry.spec_name);
    std::string load_error;
    const auto run = LoadRunFile(path, &load_error);
    if (!run) {
      SetError(error, "manifest entry " + entry.git_sha + "/" + entry.spec_name +
                          ": " + load_error);
      return false;
    }
    if (!run->has_meta) {
      SetError(error, path + ": missing metadata header");
      return false;
    }
    if (run->meta.git_sha != entry.git_sha || run->meta.spec_name != entry.spec_name ||
        run->meta.spec_hash != entry.spec_hash) {
      SetError(error, path + ": header disagrees with manifest (header " +
                          run->meta.git_sha + "/" + run->meta.spec_name + " hash " +
                          run->meta.spec_hash + ", manifest " + entry.git_sha + "/" +
                          entry.spec_name + " hash " + entry.spec_hash + ")");
      return false;
    }
    if (run->rows.size() != entry.points || run->meta.points != entry.points) {
      std::ostringstream message;
      message << path << ": point count mismatch (file has " << run->rows.size()
              << " rows, header says " << run->meta.points << ", manifest says "
              << entry.points << ")";
      SetError(error, message.str());
      return false;
    }
  }
  return true;
}

}  // namespace mobisim
