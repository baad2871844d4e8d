#include "src/sweepd/spool.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "src/runner/cli_options.h"
#include "src/util/atomic_file.h"
#include "src/util/heartbeat.h"
#include "src/util/parse.h"

namespace mobisim {

namespace {

namespace fs = std::filesystem;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

std::string JoinIndices(const std::vector<std::size_t>& points) {
  std::ostringstream out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << points[i];
  }
  return out.str();
}

bool SplitIndices(const std::string& text, std::vector<std::size_t>* points,
                  std::string* error) {
  points->clear();
  std::size_t start = 0;
  while (start <= text.size() && !text.empty()) {
    const std::size_t comma = text.find(',', start);
    const std::string token =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    const auto value = ParseUint64(token);
    if (!value) {
      SetError(error, "bad point index '" + token + "' in work item");
      return false;
    }
    points->push_back(static_cast<std::size_t>(*value));
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return true;
}

// Task files, /lease grants and spool metadata come from outside this
// process: an absent field keeps its default, a present one must be a
// non-negative integer, or the read fails naming it.
bool ReadCounts(
    const ResultRow& row,
    std::initializer_list<std::pair<const char*, std::size_t*>> fields,
    const std::string& what, std::string* error) {
  for (const auto& [key, field] : fields) {
    if (row.Find(key) == nullptr) {
      continue;
    }
    const auto value = row.Uint(key);
    if (!value) {
      SetError(error, what + ": field '" + key +
                          "' is not a non-negative integer");
      return false;
    }
    *field = static_cast<std::size_t>(*value);
  }
  return true;
}

}  // namespace

std::string WorkItemToJson(const WorkItem& item) {
  ResultRow row;
  row.AddText("id", item.id);
  row.AddInt("shard", item.shard);
  row.AddInt("shards", item.shards);
  row.AddInt("attempt", item.attempt);
  row.AddText("points", JoinIndices(item.points));
  return RowToJson(row);
}

std::optional<WorkItem> WorkItemFromJson(const std::string& text,
                                         std::string* error) {
  const auto row = RowFromJson(text, error);
  if (!row) {
    return std::nullopt;
  }
  WorkItem item;
  item.id = row->Text("id");
  if (item.id.empty()) {
    SetError(error, "work item without an id");
    return std::nullopt;
  }
  if (!ReadCounts(*row, {{"shard", &item.shard},
                         {"shards", &item.shards},
                         {"attempt", &item.attempt}},
                  "work item", error) ||
      !SplitIndices(row->Text("points"), &item.points, error)) {
    return std::nullopt;
  }
  return item;
}

std::optional<Spool> Spool::Create(const std::string& root,
                                   const std::string& spec_text,
                                   const std::string& name, std::size_t shards,
                                   std::string* error) {
  if (shards == 0) {
    SetError(error, "shard count must be > 0");
    return std::nullopt;
  }
  // The spool stores the spec as parseable source text, verbatim: every
  // worker parses the exact bytes the dispatcher validated here, so they
  // cannot disagree about the grid or its fingerprint.  (CanonicalSpecText
  // is fingerprint material, not round-trippable input.)
  const auto spec = ParseExperimentSpec(spec_text, error);
  if (!spec) {
    return std::nullopt;
  }
  Spool spool(root);
  std::error_code ec;
  if (fs::exists(spool.MetaPath(), ec)) {
    SetError(error, root + " already holds a spool (delete it to start over; "
                           "a half-finished spool is resumable state)");
    return std::nullopt;
  }
  for (const char* state : {"queue", "running", "done", "failed"}) {
    fs::create_directories(root + "/" + state, ec);
    if (ec) {
      SetError(error, "cannot create " + root + "/" + state + ": " + ec.message());
      return std::nullopt;
    }
  }
  std::string write_error;
  if (!WriteFileAtomic(spool.SpecPath(), spec_text, &write_error)) {
    SetError(error, write_error);
    return std::nullopt;
  }
  ResultRow meta;
  meta.AddText("name", name);
  meta.AddText("spec_hash", SpecFingerprint(*spec));
  meta.AddInt("shards", shards);
  meta.AddInt("points", GridSize(*spec));
  meta.AddText("created", NowUtc());
  meta.AddText("host", HostName());
  if (!WriteFileAtomic(spool.MetaPath(), RowToJson(meta) + "\n", &write_error)) {
    SetError(error, write_error);
    return std::nullopt;
  }
  for (std::size_t shard = 0; shard < shards; ++shard) {
    char id[32];
    std::snprintf(id, sizeof(id), "shard-%04zu", shard);
    WorkItem item;
    item.id = id;
    item.shard = shard;
    item.shards = shards;
    if (!spool.Enqueue(item, error)) {
      return std::nullopt;
    }
  }
  ResultRow event;
  event.AddText("event", "created");
  event.AddInt("shards", shards);
  event.AddInt("points", GridSize(*spec));
  spool.AppendEvent(std::move(event));
  return spool;
}

std::optional<SpoolMeta> Spool::ReadMeta(std::string* error) const {
  std::string data;
  if (!ReadFileToString(MetaPath(), &data, error)) {
    return std::nullopt;
  }
  // Trim the trailing newline; RowFromJson wants one object.
  while (!data.empty() && (data.back() == '\n' || data.back() == '\r')) {
    data.pop_back();
  }
  const auto row = RowFromJson(data, error);
  if (!row) {
    return std::nullopt;
  }
  SpoolMeta meta;
  meta.name = row->Text("name");
  meta.spec_hash = row->Text("spec_hash");
  if (!ReadCounts(*row, {{"shards", &meta.shards}, {"points", &meta.points}},
                  MetaPath(), error)) {
    return std::nullopt;
  }
  meta.created = row->Text("created");
  meta.host = row->Text("host");
  if (meta.name.empty() || meta.spec_hash.empty() || meta.shards == 0) {
    SetError(error, MetaPath() + ": incomplete spool metadata");
    return std::nullopt;
  }
  return meta;
}

std::optional<ExperimentSpec> Spool::LoadSpec(std::string* error) const {
  std::string text;
  if (!ReadFileToString(SpecPath(), &text, error)) {
    return std::nullopt;
  }
  return ParseExperimentSpec(text, error);
}

std::optional<std::string> Spool::ReadSpecText(std::string* error) const {
  std::string text;
  if (!ReadFileToString(SpecPath(), &text, error)) {
    return std::nullopt;
  }
  return text;
}

bool Spool::Enqueue(const WorkItem& item, std::string* error) const {
  return WriteFileAtomic(TaskPath("queue", item.id), WorkItemToJson(item) + "\n",
                         error);
}

std::optional<WorkItem> Spool::Claim(std::uint64_t owner, std::string* error) const {
  SetError(error, "");
  for (const std::string& id : ListIds("queue")) {
    std::error_code ec;
    // The rename is the lease: of N racing claimants exactly one succeeds,
    // the others see ENOENT here and try the next item.
    fs::rename(TaskPath("queue", id), TaskPath("running", id), ec);
    if (ec) {
      continue;
    }
    std::string read_error;
    auto item = ReadItem("running", id, &read_error);
    if (!item) {
      SetError(error, "claimed item " + id + ": " + read_error);
      return std::nullopt;
    }
    WriteHeartbeat(HeartbeatPath(id), {0, owner});
    return item;
  }
  return std::nullopt;  // queue empty (error left empty)
}

bool Spool::FinishItem(const WorkItem& item, std::string* error) const {
  std::error_code ec;
  fs::rename(TaskPath("running", item.id), TaskPath("done", item.id), ec);
  if (ec) {
    // Lease lost: a dispatcher requeued this item under a stale-heartbeat
    // verdict and someone else may own it now.  Leave every file alone.
    SetError(error, "lease lost for " + item.id + " (" + ec.message() + ")");
    return false;
  }
  fs::remove(HeartbeatPath(item.id), ec);
  for (const std::string& part : PartPaths(item.id)) {
    fs::remove(part, ec);
  }
  return true;
}

bool Spool::Requeue(const WorkItem& item, std::string* error) const {
  WorkItem next = item;
  next.attempt = item.attempt + 1;
  // Queue copy first, running copy second: a crash in between duplicates the
  // item (benign — results are deterministic and merges dedup), never loses it.
  if (!Enqueue(next, error)) {
    return false;
  }
  std::error_code ec;
  fs::remove(TaskPath("running", item.id), ec);
  fs::remove(HeartbeatPath(item.id), ec);
  return true;
}

bool Spool::FailItem(const WorkItem& item, const std::string& state_from,
                     std::string* error) const {
  if (!WriteFileAtomic(TaskPath("failed", item.id), WorkItemToJson(item) + "\n",
                       error)) {
    return false;
  }
  std::error_code ec;
  fs::remove(TaskPath(state_from, item.id), ec);
  fs::remove(HeartbeatPath(item.id), ec);
  return true;
}

std::vector<std::string> Spool::ListIds(const std::string& state) const {
  std::vector<std::string> ids;
  std::error_code ec;
  fs::directory_iterator it(root_ + "/" + state, ec);
  if (ec) {
    return ids;
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".task";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ids.push_back(name.substr(0, name.size() - suffix.size()));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<WorkItem> Spool::ReadItem(const std::string& state,
                                        const std::string& id,
                                        std::string* error) const {
  std::string data;
  if (!ReadFileToString(TaskPath(state, id), &data, error)) {
    return std::nullopt;
  }
  while (!data.empty() && (data.back() == '\n' || data.back() == '\r')) {
    data.pop_back();
  }
  return WorkItemFromJson(data, error);
}

std::vector<std::string> Spool::PartPaths(const std::string& id) const {
  std::vector<std::string> parts;
  std::error_code ec;
  fs::directory_iterator it(root_ + "/running", ec);
  if (ec) {
    return parts;
  }
  const std::string prefix = id + ".a";
  const std::string suffix = ".jsonl.part";
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      parts.push_back(entry.path().string());
    }
  }
  std::sort(parts.begin(), parts.end());
  return parts;
}

Spool::Counts Spool::CountItems() const {
  Counts counts;
  counts.queued = ListIds("queue").size();
  counts.running = ListIds("running").size();
  counts.done = ListIds("done").size();
  counts.failed = ListIds("failed").size();
  return counts;
}

void Spool::AppendEvent(ResultRow event) const {
  ResultRow stamped;
  stamped.AddText("ts", NowUtc());
  for (ResultField& field : event.fields) {
    stamped.fields.push_back(std::move(field));
  }
  std::ofstream out(EventsPath(), std::ios::app);
  if (out) {
    out << RowToJson(stamped) << "\n";
  }
}

}  // namespace mobisim
