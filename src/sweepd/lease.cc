#include "src/sweepd/lease.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/runner/cli_options.h"
#include "src/sweepd/merge.h"
#include "src/util/atomic_file.h"
#include "src/util/hash.h"
#include "src/util/heartbeat.h"

namespace mobisim {

namespace {

// Parses a single-JSON-object request body (trailing newline tolerated).
std::optional<ResultRow> ParseBodyRow(const std::string& body) {
  std::string text = body;
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  if (text.empty()) {
    return ResultRow{};  // an empty body is a valid empty request
  }
  std::string error;
  return RowFromJson(text, &error);
}

HttpResponse JsonOk(const ResultRow& row) {
  HttpResponse response;
  response.body = RowToJson(row) + "\n";
  return response;
}

std::string JoinIndices(const std::vector<std::uint64_t>& points) {
  std::ostringstream out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << points[i];
  }
  return out.str();
}

}  // namespace

std::size_t ExpectedItemPoints(const WorkItem& item, std::size_t total_points) {
  if (!item.points.empty()) {
    return item.points.size();
  }
  if (item.shards == 0) {
    return 0;
  }
  // FilterShard keeps global indices with index % shards == shard.
  return total_points / item.shards +
         (item.shard < total_points % item.shards ? 1 : 0);
}

LeaseService::LeaseService(const Spool* spool, SpoolMeta meta,
                           std::string spec_text, LeaseServiceOptions options)
    : spool_(spool),
      meta_(std::move(meta)),
      spec_text_(std::move(spec_text)),
      options_(options) {
  if (const auto spec = ParseExperimentSpec(spec_text_, nullptr)) {
    columns_ = ColumnGroupsOf(*spec);
  }
  // Owner ids must never collide with local worker pids (the dispatcher's
  // dead-owner test) or with a previous dispatcher incarnation's remote
  // owners (heartbeat files survive restarts): high bit set, seeded from
  // wall clock and pid, then sequential.
  next_owner_ = (Fnv1a64(NowUtc() + "/" + std::to_string(::getpid())) |
                 (1ull << 63));
}

std::unique_ptr<LeaseService> LeaseService::InProcess(const Spool* spool,
                                                     SpoolMeta meta,
                                                     std::string spec_text) {
  auto service = std::make_unique<LeaseService>(spool, std::move(meta),
                                                std::move(spec_text),
                                                LeaseServiceOptions{});
  service->pid_owner_ = static_cast<std::uint64_t>(::getpid());
  service->set_drained(true);
  return service;
}

std::optional<HttpResponse> LeaseService::Handle(const HttpRequest& request) {
  if (request.path != "/lease" && request.path != "/heartbeat" &&
      request.path != "/results" && request.path != "/done") {
    return std::nullopt;
  }
  if (request.method != "POST") {
    return HttpError(405, "lease endpoints are POST only");
  }
  if (request.path == "/lease") {
    return HandleLease(request);
  }
  if (request.path == "/heartbeat") {
    return HandleHeartbeat(request);
  }
  if (request.path == "/results") {
    return HandleResults(request);
  }
  return HandleDone(request);
}

void LeaseService::InvalidateItem(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.item.id == id) {
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
}

void LeaseService::AwaitLesseesDrained(double timeout_sec) {
  std::unique_lock<std::mutex> lock(mu_);
  told_drained_cv_.wait_for(lock, std::chrono::duration<double>(timeout_sec),
                            [this] { return not_told_drained_.empty(); });
}

std::size_t LeaseService::active_leases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leases_.size();
}

LeaseService::Lease* LeaseService::Validate(const std::string& token,
                                            std::string* why) {
  const auto it = leases_.find(token);
  if (it == leases_.end()) {
    *why = "unknown or invalidated lease token";
    return nullptr;
  }
  // The token table alone is not authoritative — the spool is.  The item
  // must still be running under the granted attempt with the granted
  // owner's heartbeat; anything else means the lease was forfeited (expiry,
  // requeue, a rival finisher) while this worker was partitioned.
  std::string error;
  const auto current = spool_->ReadItem("running", it->second.item.id, &error);
  if (!current || current->attempt != it->second.item.attempt) {
    leases_.erase(it);
    *why = "lease lost: item is no longer running under this attempt";
    return nullptr;
  }
  const auto beat = ReadHeartbeat(spool_->HeartbeatPath(it->second.item.id));
  if (!beat || beat->owner != it->second.owner) {
    leases_.erase(it);
    *why = "lease lost: heartbeat owned by someone else";
    return nullptr;
  }
  return &it->second;
}

HttpResponse LeaseService::HandleLease(const HttpRequest& request) {
  const auto body = ParseBodyRow(request.body);
  if (!body) {
    return HttpError(400, "lease request body is not a JSON object");
  }
  std::string worker = body->Text("worker");
  if (worker.empty()) {
    worker = "remote";
  }

  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t owner = pid_owner_ != 0 ? pid_owner_ : next_owner_++;
  std::string error;
  const auto item = spool_->Claim(owner, &error);
  if (!item) {
    if (!error.empty()) {
      return HttpError(500, error);
    }
    const bool drained = drained_.load();
    if (drained && not_told_drained_.erase(worker) > 0) {
      told_drained_cv_.notify_all();
    }
    ResultRow row;
    row.AddText("state", drained ? "drained" : "empty");
    return JsonOk(row);
  }
  not_told_drained_.insert(worker);

  Lease lease;
  lease.item = *item;
  lease.owner = owner;
  lease.worker = worker;
  lease.last_beat = std::chrono::steady_clock::now();  // Claim wrote one
  // Rows streamed by previous attempts are the resume set: the worker skips
  // those points, and /results treats their fingerprints as already seen.
  std::vector<std::uint64_t> done_points;
  for (const std::string& part : spool_->PartPaths(item->id)) {
    for (const ResultRow& row : LoadPartialRows(part)) {
      const auto index = row.Uint("point");
      if (index) {
        done_points.push_back(*index);
        lease.fingerprints.insert(PointFingerprint(row));
      }
    }
  }

  const std::string token = HexU64(
      Fnv1a64(item->id + "/" + std::to_string(item->attempt) + "/" +
              std::to_string(owner)));
  leases_[token] = std::move(lease);

  ResultRow response;
  response.AddText("state", "lease");
  response.AddText("token", token);
  response.AddText("item", WorkItemToJson(*item));
  response.AddText("spec", spec_text_);  // verbatim; JsonEscape carries \n
  response.AddText("name", meta_.name);
  response.AddText("spec_hash", meta_.spec_hash);
  response.AddInt("points_total", meta_.points);
  response.AddInt("expected_points", ExpectedItemPoints(*item, meta_.points));
  response.AddNumber("lease_sec", options_.lease_sec);
  response.AddText("done_points", JoinIndices(done_points));

  ResultRow event;
  event.AddText("event", "lease_granted");
  event.AddText("item", item->id);
  event.AddInt("attempt", item->attempt);
  event.AddInt("owner", owner);
  event.AddText("worker", worker);
  spool_->AppendEvent(std::move(event));
  if (options_.log != nullptr) {
    *options_.log << "sweepd: leased " << item->id << " (attempt "
                  << item->attempt << ") to " << worker << "\n";
  }
  return JsonOk(response);
}

HttpResponse LeaseService::HandleHeartbeat(const HttpRequest& request) {
  const auto body = ParseBodyRow(request.body);
  if (!body) {
    return HttpError(400, "heartbeat body is not a JSON object");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string why;
  Lease* lease = Validate(body->Text("token"), &why);
  if (lease == nullptr) {
    return HttpError(410, why);
  }
  std::uint64_t rows = 0;
  if (body->Find("rows") != nullptr) {
    const auto value = body->Uint("rows");
    if (!value) {
      return HttpError(400, "heartbeat 'rows' is not a non-negative integer");
    }
    rows = *value;
  }
  WriteHeartbeat(spool_->HeartbeatPath(lease->item.id), {rows, lease->owner});
  lease->last_beat = std::chrono::steady_clock::now();
  ResultRow row;
  row.AddText("state", "ok");
  row.AddNumber("lease_sec", options_.lease_sec);
  return JsonOk(row);
}

HttpResponse LeaseService::HandleResults(const HttpRequest& request) {
  // Body: one token line, then result rows as JSONL.
  std::istringstream lines(request.body);
  std::string line;
  if (!std::getline(lines, line)) {
    return HttpError(400, "empty results body");
  }
  const auto header = ParseBodyRow(line);
  if (!header) {
    return HttpError(400, "results header is not a JSON object");
  }

  std::lock_guard<std::mutex> lock(mu_);
  std::string why;
  Lease* lease = Validate(header->Text("token"), &why);
  if (lease == nullptr) {
    return HttpError(410, why);
  }

  // Dedup before append: a replayed or duplicated chunk (client retry after
  // a lost response, injected request duplication) re-sends fingerprints we
  // have already written, so it falls through to a no-op.
  std::size_t accepted = 0;
  std::size_t duplicates = 0;
  std::size_t malformed = 0;
  std::ostringstream fresh;
  while (std::getline(lines, line)) {
    if (line.empty() || line == "\r") {
      continue;
    }
    std::string error;
    const auto row = RowFromJson(line, &error);
    if (!row || !row->Uint("point")) {
      ++malformed;  // retried chunks re-send whole; a torn line heals itself
      continue;
    }
    const std::string fingerprint = PointFingerprint(*row);
    if (!lease->fingerprints.insert(fingerprint).second) {
      ++duplicates;
      continue;
    }
    fresh << RowToJson(*row) << "\n";
    ++accepted;
  }
  if (accepted > 0) {
    const std::string part_path =
        spool_->PartPath(lease->item.id, lease->item.attempt);
    std::ofstream part(part_path, std::ios::app);
    if (!part) {
      return HttpError(500, "cannot append to part file");
    }
    part << fresh.str();
    part.flush();
    if (!part) {
      return HttpError(500, "short write to part file");
    }
    lease->uploaded += accepted;
    // An upload is proof of life as good as a heartbeat, but the heartbeat
    // file is rewritten (fsync + rename) at most every lease_sec/10: a
    // fresher beat buys the lease nothing, and a worker uploading row by row
    // would otherwise pay a sync per point.
    const auto now = std::chrono::steady_clock::now();
    if (now - lease->last_beat >=
        std::chrono::duration<double>(options_.lease_sec / 10)) {
      WriteHeartbeat(spool_->HeartbeatPath(lease->item.id),
                     {lease->uploaded, lease->owner});
      lease->last_beat = now;
    }
  }

  ResultRow row;
  row.AddText("state", "ok");
  row.AddInt("accepted", accepted);
  row.AddInt("duplicates", duplicates);
  row.AddInt("malformed", malformed);
  return JsonOk(row);
}

HttpResponse LeaseService::HandleDone(const HttpRequest& request) {
  const auto body = ParseBodyRow(request.body);
  if (!body) {
    return HttpError(400, "done body is not a JSON object");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string why;
  Lease* lease = Validate(body->Text("token"), &why);
  if (lease == nullptr) {
    return HttpError(410, why);
  }
  // Copies: the lease table entry dies before the event is written.
  const WorkItem item = lease->item;
  const std::uint64_t owner = lease->owner;

  // Finalize: every attempt's part rows, merged under the shared conflict
  // rule, in global point-index order.
  std::map<std::uint64_t, ResultRow> merged;
  MergeStats stats;
  for (const std::string& part : spool_->PartPaths(item.id)) {
    for (ResultRow& row : LoadPartialRows(part)) {
      std::string error;
      if (!MergeRowInto(&merged, std::move(row), &stats, &error)) {
        return HttpError(409, "uploaded rows conflict: " + error);
      }
    }
  }
  const std::size_t expected = ExpectedItemPoints(item, meta_.points);
  if (merged.size() < expected) {
    // A /done racing an unacknowledged /results chunk (or a worker that
    // lost track) must not publish a short shard; the client re-uploads
    // and retries.
    ResultRow row;
    row.AddText("error", "incomplete upload");
    row.AddInt("have", merged.size());
    row.AddInt("want", expected);
    HttpResponse response;
    response.status = 409;
    response.body = RowToJson(row) + "\n";
    return response;
  }

  std::size_t error_rows = 0;
  RunMeta run_meta;
  run_meta.spec_name = meta_.name;
  run_meta.spec_hash = meta_.spec_hash;
  run_meta.git_sha = DefaultGitSha();
  run_meta.created = NowUtc();
  run_meta.host = HostName();
  run_meta.points = merged.size();
  run_meta.columns = columns_;
  std::ostringstream out;
  out << RowToJson(MetaToRow(run_meta)) << "\n";
  for (const auto& [index, row] : merged) {
    (void)index;
    if (IsErrorRow(row)) {
      ++error_rows;
    }
    out << RowToJson(row) << "\n";
  }
  std::string error;
  if (!WriteFileAtomic(spool_->RowsPath(item.id), out.str(), &error)) {
    return HttpError(500, error);
  }
  if (!spool_->FinishItem(item, &error)) {
    // Requeued between Validate and here (the dispatcher thread races us by
    // design); the rows file is deterministic, so the re-run converges.
    for (auto it = leases_.begin(); it != leases_.end();) {
      it = it->second.item.id == item.id ? leases_.erase(it) : std::next(it);
    }
    return HttpError(410, "lease lost while finalizing: " + error);
  }
  for (auto it = leases_.begin(); it != leases_.end();) {
    it = it->second.item.id == item.id ? leases_.erase(it) : std::next(it);
  }

  ResultRow event;
  event.AddText("event", error_rows > 0 ? "shard_poisoned" : "shard_done");
  event.AddText("item", item.id);
  event.AddInt("attempt", item.attempt);
  event.AddInt("rows", merged.size());
  event.AddInt("error_rows", error_rows);
  event.AddInt("owner", owner);
  spool_->AppendEvent(std::move(event));
  if (options_.log != nullptr) {
    *options_.log << "sweepd: " << item.id << " done (" << merged.size()
                  << " rows, " << error_rows << " errors)\n";
  }

  ResultRow row;
  row.AddText("state", "ok");
  row.AddInt("rows", merged.size());
  row.AddInt("error_rows", error_rows);
  return JsonOk(row);
}

}  // namespace mobisim
