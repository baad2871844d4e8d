#include "src/bench_db/bench_db.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "src/util/atomic_file.h"

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

std::optional<std::string> BenchDb::StoreRun(RunMeta meta,
                                             const std::vector<ResultRow>& rows,
                                             std::string* error) {
  if (!SafePathComponent(meta.git_sha)) {
    SetError(error, "bad git sha '" + meta.git_sha + "' for a store path");
    return std::nullopt;
  }
  if (!SafePathComponent(meta.spec_name)) {
    SetError(error, "bad spec name '" + meta.spec_name + "' for a store path");
    return std::nullopt;
  }
  meta.points = rows.size();

  const std::string path = RunPath(meta.git_sha, meta.spec_name);
  std::error_code ec;
  std::filesystem::create_directories(root_ + "/" + meta.git_sha, ec);
  if (ec) {
    SetError(error, "cannot create " + root_ + "/" + meta.git_sha + ": " + ec.message());
    return std::nullopt;
  }

  {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      SetError(error, "cannot write " + path);
      return std::nullopt;
    }
    out << RowToJson(MetaToRow(meta)) << "\n";
    for (const ResultRow& row : rows) {
      out << RowToJson(row) << "\n";
    }
    if (!out) {
      SetError(error, "write failed for " + path);
      return std::nullopt;
    }
  }

  std::ofstream index(root_ + "/index.jsonl", std::ios::app);
  if (!index) {
    SetError(error, "cannot append to " + root_ + "/index.jsonl");
    return std::nullopt;
  }
  index << RowToJson(MetaToRow(meta)) << "\n";
  if (!index) {
    SetError(error, "write failed for " + root_ + "/index.jsonl");
    return std::nullopt;
  }
  return path;
}

namespace {

bool IsErrorRow(const ResultRow& row) { return row.Find("_error") != nullptr; }

}  // namespace

std::optional<std::string> BenchDb::MergeRun(RunMeta meta,
                                             const std::vector<ResultRow>& rows,
                                             std::string* error) {
  const std::string path = RunPath(meta.git_sha, meta.spec_name);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return StoreRun(std::move(meta), rows, error);
  }
  std::string load_error;
  auto existing = LoadRunFile(path, &load_error);
  if (!existing) {
    SetError(error, "merge target " + path + ": " + load_error);
    return std::nullopt;
  }
  if (existing->has_meta && !meta.spec_hash.empty() &&
      existing->meta.spec_hash != meta.spec_hash) {
    SetError(error, path + ": spec fingerprint mismatch (stored " +
                        existing->meta.spec_hash + ", incoming " + meta.spec_hash +
                        "); refusing to merge rows of a different experiment");
    return std::nullopt;
  }

  // Union by global point index; point order in the merged file.
  std::map<std::uint64_t, ResultRow> merged;
  for (ResultRow& row : existing->rows) {
    const auto index = row.Uint("point");
    if (!index) {
      SetError(error, path + ": stored data row without a point index");
      return std::nullopt;
    }
    merged.emplace(*index, std::move(row));
  }
  bool changed = false;
  for (const ResultRow& row : rows) {
    const auto index = row.Uint("point");
    if (!index) {
      SetError(error, "incoming row without a point index cannot be merged");
      return std::nullopt;
    }
    const auto it = merged.find(*index);
    if (it == merged.end()) {
      merged.emplace(*index, row);
      changed = true;
      continue;
    }
    const std::string stored_json = RowToJson(it->second);
    const std::string incoming_json = RowToJson(row);
    if (stored_json == incoming_json) {
      continue;  // idempotent re-merge
    }
    if (IsErrorRow(it->second) && !IsErrorRow(row)) {
      it->second = row;  // a retry succeeded: the clean row wins
      changed = true;
    } else if (!IsErrorRow(it->second) && IsErrorRow(row)) {
      // A stale retry failed after the point already succeeded: keep success.
    } else if (IsErrorRow(it->second)) {
      // Both failed: keep the newer message (later attempt).
      it->second = row;
      changed = true;
    } else {
      SetError(error, "point " + std::to_string(*index) +
                          ": conflicting non-error rows; these are not shards "
                          "of the same deterministic sweep");
      return std::nullopt;
    }
  }
  if (!changed) {
    return path;  // nothing to write: re-merging changes nothing, byte for byte
  }

  // The run keeps its original identity (created / host); only the row set
  // and point count move.
  RunMeta header = existing->has_meta ? existing->meta : meta;
  header.points = merged.size();
  std::ostringstream out;
  out << RowToJson(MetaToRow(header)) << "\n";
  for (const auto& [index, row] : merged) {
    (void)index;
    out << RowToJson(row) << "\n";
  }
  std::string write_error;
  if (!WriteFileAtomic(path, out.str(), &write_error)) {
    SetError(error, write_error);
    return std::nullopt;
  }

  // Update (not append) the manifest entry so Verify() keeps passing and
  // repeated merges never grow the index.
  std::vector<RunMeta> entries = ReadIndex(nullptr);
  bool found = false;
  for (RunMeta& entry : entries) {
    if (entry.git_sha == header.git_sha && entry.spec_name == header.spec_name) {
      entry = header;
      found = true;
    }
  }
  if (!found) {
    entries.push_back(header);
  }
  std::ostringstream index_out;
  for (const RunMeta& entry : entries) {
    index_out << RowToJson(MetaToRow(entry)) << "\n";
  }
  if (!WriteFileAtomic(root_ + "/index.jsonl", index_out.str(), &write_error)) {
    SetError(error, write_error);
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
