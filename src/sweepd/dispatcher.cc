#include "src/sweepd/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/sweepd/lease.h"
#include "src/sweepd/merge.h"
#include "src/sweepd/spool.h"
#include "src/util/atomic_file.h"
#include "src/util/bytes.h"
#include "src/util/heartbeat.h"
#include "src/util/http_client.h"
#include "src/util/http_server.h"

namespace mobisim {

namespace {

// "shard-0003.r2" -> "shard-0003": retry items chain off the original id.
std::string BaseId(const std::string& id) {
  const std::size_t dot = id.find(".r");
  return dot == std::string::npos ? id : id.substr(0, dot);
}

std::string SelfBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    return "";
  }
  buf[n] = '\0';
  return buf;
}

pid_t SpawnWorker(const std::string& binary, const DispatcherOptions& options,
                  std::size_t kill_after_rows) {
  std::vector<std::string> args = {binary, "work", "--spool", options.spool_root,
                                   "--jobs", std::to_string(options.jobs_per_worker),
                                   "--quiet"};
  if (!options.trace_cache_dir.empty()) {
    args.push_back("--trace-cache");
    args.push_back(options.trace_cache_dir);
  }
  if (options.throttle_ms > 0) {
    args.push_back("--throttle-ms");
    args.push_back(std::to_string(options.throttle_ms));
  }
  if (kill_after_rows > 0) {
    args.push_back("--kill-after-rows");
    args.push_back(std::to_string(kill_after_rows));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);  // exec failed; the parent sees a dead worker and respawns
  }
  return pid;
}

// On-disk footprint of the spool directory, best-effort: files appear and
// vanish while workers run, so any stat error just skips that file.
std::uint64_t SpoolDiskBytes(const std::string& root) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(root, ec);
  const std::filesystem::recursive_directory_iterator end;
  while (!ec && it != end) {
    if (it->is_regular_file(ec) && !ec) {
      const std::uintmax_t size = it->file_size(ec);
      if (!ec) {
        bytes += size;
      }
    }
    ec.clear();
    it.increment(ec);
  }
  return bytes;
}

}  // namespace

ResultRow SpoolStatusRow(const Spool& spool, const SpoolMeta& meta,
                         double elapsed_sec) {
  const Spool::Counts counts = spool.CountItems();
  const MergedRun merged = MergeSpoolLive(spool);
  const std::size_t done_points = merged.rows.size();
  const double rate = elapsed_sec > 0.0 ? done_points / elapsed_sec : 0.0;
  const std::size_t remaining =
      meta.points > done_points ? meta.points - done_points : 0;

  ResultRow row;
  row.AddText("name", meta.name);
  row.AddText("spec_hash", meta.spec_hash);
  row.AddInt("shards_queued", counts.queued);
  row.AddInt("shards_running", counts.running);
  row.AddInt("shards_done", counts.done);
  row.AddInt("shards_failed", counts.failed);
  row.AddInt("points_total", meta.points);
  row.AddInt("points_done", done_points);
  row.AddInt("error_points", merged.stats.error_rows);
  row.AddNumber("elapsed_sec", elapsed_sec);
  row.AddNumber("points_per_sec", rate);
  row.AddNumber("eta_sec", rate > 0.0 ? remaining / rate : 0.0);
  // Disk footprint both ways: the raw count for tooling, the human form for
  // anyone watching `sweepd status` or the /status endpoint directly.
  const std::uint64_t spool_bytes = SpoolDiskBytes(spool.root());
  row.AddInt("spool_bytes", spool_bytes);
  row.AddText("spool_size", HumanBytes(spool_bytes));
  return row;
}

std::vector<ResultRow> SpoolLeaseRows(const Spool& spool, double lease_sec) {
  std::vector<ResultRow> rows;
  for (const std::string& id : spool.ListIds("running")) {
    std::string error;
    const auto item = spool.ReadItem("running", id, &error);
    const auto beat = ReadHeartbeat(spool.HeartbeatPath(id));
    const auto age = SecondsSinceModified(spool.HeartbeatPath(id));
    ResultRow row;
    row.AddText("item", id);
    row.AddInt("attempt", item ? item->attempt : 0);
    row.AddInt("owner", beat ? beat->owner : 0);
    row.AddInt("rows", beat ? beat->counter : 0);
    row.AddNumber("heartbeat_age_sec", age ? *age : -1.0);
    row.AddInt("stale", lease_sec > 0.0 && age && *age > lease_sec ? 1 : 0);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RenderStatusJson(const Spool& spool, const SpoolMeta& meta,
                             double elapsed_sec, double lease_sec) {
  std::string flat = RowToJson(SpoolStatusRow(spool, meta, elapsed_sec));
  flat.pop_back();  // re-open the object to splice in the nested array
  std::ostringstream out;
  out << flat << ",\"lease_sec\":" << lease_sec << ",\"leases\":[";
  bool first = true;
  for (const ResultRow& row : SpoolLeaseRows(spool, lease_sec)) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << RowToJson(row);
  }
  out << "]}";
  return out.str();
}

namespace {

std::string RenderResults(const Spool& spool, const SpoolMeta& meta) {
  const MergedRun merged = MergeSpoolLive(spool);
  RunMeta header;
  header.spec_name = meta.name;
  header.spec_hash = meta.spec_hash;
  header.git_sha = "live";
  header.created = meta.created;
  header.host = meta.host;
  header.points = merged.rows.size();
  std::ostringstream out;
  out << RowToJson(MetaToRow(header)) << "\n";
  for (const ResultRow& row : merged.rows) {
    out << RowToJson(row) << "\n";
  }
  return out.str();
}

}  // namespace

DispatchSummary RunDispatcher(const DispatcherOptions& options) {
  DispatchSummary summary;
  Spool spool(options.spool_root);
  std::string error;
  const auto meta = spool.ReadMeta(&error);
  if (!meta) {
    if (options.log != nullptr) {
      *options.log << "sweepd: " << error << "\n";
    }
    return summary;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  // Live endpoint: /status and /results recompute from the spool on every
  // request, so the handler needs no shared mutable state with this loop;
  // the lease endpoints (POST /lease, /heartbeat, /results, /done) go
  // through the LeaseService, which locks internally.
  HttpServer http;
  std::unique_ptr<LeaseService> lease_service;
  if (options.http_port >= 0) {
    const auto spec_text = spool.ReadSpecText(&error);
    if (!spec_text) {
      if (options.log != nullptr) {
        *options.log << "sweepd: " << error << "\n";
      }
      return summary;
    }
    LeaseServiceOptions lease_options;
    lease_options.lease_sec = options.lease_sec;
    lease_options.log = options.log;
    lease_service =
        std::make_unique<LeaseService>(&spool, *meta, *spec_text, lease_options);
    const bool ok = http.Start(
        static_cast<std::uint16_t>(options.http_port), options.http_bind_any,
        [&spool, &meta, &elapsed, &options,
         lease = lease_service.get()](const HttpRequest& request) {
          if (auto handled = lease->Handle(request)) {
            return *handled;
          }
          HttpResponse response;
          if (request.path == "/status" || request.path == "/") {
            response.body =
                RenderStatusJson(spool, *meta, elapsed(), options.lease_sec) +
                "\n";
          } else if (request.path == "/results") {
            response.content_type = "application/jsonl";
            response.body = RenderResults(spool, *meta);
          } else {
            response = HttpNotFound();
          }
          return response;
        },
        &error);
    if (!ok) {
      if (options.log != nullptr) {
        *options.log << "sweepd: http: " << error << "\n";
      }
      return summary;
    }
    WriteFileAtomic(spool.PortPath(), std::to_string(http.port()) + "\n");
    if (options.log != nullptr) {
      *options.log << "sweepd: status at http://127.0.0.1:" << http.port()
                   << "/status\n";
    }
  }

  const std::string binary =
      options.worker_binary.empty() ? SelfBinary() : options.worker_binary;
  std::map<pid_t, std::size_t> live;  // pid -> worker ordinal
  // Hard cap on total spawns: generous headroom over the expected respawn
  // churn, so a crash-looping worker binary cannot fork-bomb the machine.
  const std::size_t spawn_cap =
      options.workers * (options.retry_budget + 2) + 4;

  const auto spawn_if_needed = [&] {
    while (live.size() < options.workers &&
           summary.workers_spawned < spawn_cap &&
           !spool.ListIds("queue").empty() && !binary.empty()) {
      const std::size_t kill_rows = summary.workers_spawned == 0
                                        ? options.kill_first_worker_after_rows
                                        : 0;
      const pid_t pid = SpawnWorker(binary, options, kill_rows);
      if (pid <= 0) {
        return;
      }
      live.emplace(pid, summary.workers_spawned);
      ++summary.workers_spawned;
      ResultRow event;
      event.AddText("event", "worker_spawned");
      event.AddInt("pid", static_cast<std::uint64_t>(pid));
      spool.AppendEvent(std::move(event));
    }
  };

  // Requeue an item whose lease was forfeited, or fail it when its retry
  // budget is spent.
  const auto recover = [&](const WorkItem& item, const std::string& why) {
    if (lease_service) {
      // The holder's token dies with the lease: a late upload from the old
      // owner now gets 410 Gone instead of touching the requeued item.
      lease_service->InvalidateItem(item.id);
    }
    ResultRow event;
    if (item.attempt < options.retry_budget) {
      if (spool.Requeue(item, &error)) {
        ++summary.requeues;
        event.AddText("event", "shard_requeued");
      } else {
        event.AddText("event", "requeue_failed");
      }
    } else {
      spool.FailItem(item, "running", &error);
      event.AddText("event", "shard_failed");
    }
    event.AddText("item", item.id);
    event.AddInt("attempt", item.attempt);
    event.AddText("why", why);
    spool.AppendEvent(std::move(event));
    if (options.log != nullptr) {
      *options.log << "sweepd: " << item.id << " " << why << " (attempt "
                   << item.attempt << ")\n";
    }
  };

  std::set<std::string> processed_done;
  std::set<std::uint64_t> dead_owners;
  // Items observed in running/ without a heartbeat yet, and when (elapsed
  // seconds) each was first seen.  rename() preserves mtimes, so a freshly
  // claimed item's task file can look arbitrarily old — the lease clock for
  // a heartbeat-less item starts when the dispatcher first notices it.
  std::map<std::string, double> first_seen_without_heartbeat;

  spawn_if_needed();
  while (true) {
    // Reap spawned workers; a death is also an instant lease forfeit for
    // every item the dead pid owned (no need to wait out the deadline).
    for (auto it = live.begin(); it != live.end();) {
      int status = 0;
      const pid_t done = ::waitpid(it->first, &status, WNOHANG);
      if (done == it->first) {
        ResultRow event;
        event.AddText("event", "worker_exit");
        event.AddInt("pid", static_cast<std::uint64_t>(it->first));
        event.AddInt("status", static_cast<std::uint64_t>(
                                   WIFEXITED(status) ? WEXITSTATUS(status) : 128));
        spool.AppendEvent(std::move(event));
        dead_owners.insert(static_cast<std::uint64_t>(it->first));
        it = live.erase(it);
      } else {
        ++it;
      }
    }

    // Lease enforcement over running items.
    for (const std::string& id : spool.ListIds("running")) {
      const auto item = spool.ReadItem("running", id, &error);
      if (!item) {
        continue;  // claimed or finished between listing and reading
      }
      const auto beat = ReadHeartbeat(spool.HeartbeatPath(id));
      const bool owner_dead = beat && dead_owners.count(beat->owner) > 0;
      const auto age = SecondsSinceModified(spool.HeartbeatPath(id));
      double silence = 0.0;
      if (age) {
        first_seen_without_heartbeat.erase(id);
        silence = *age;
      } else {
        const auto [it, inserted] =
            first_seen_without_heartbeat.emplace(id, elapsed());
        silence = inserted ? 0.0 : elapsed() - it->second;
      }
      if (owner_dead) {
        recover(*item, "worker died");
      } else if (silence > options.lease_sec) {
        recover(*item, "lease expired");
      }
    }

    // Poisoned-shard handling: a completed shard whose rows include
    // `_error` points gets a targeted retry item for exactly those
    // indices, up to the retry budget.
    for (const std::string& id : spool.ListIds("done")) {
      if (!processed_done.insert(id).second) {
        continue;
      }
      const auto item = spool.ReadItem("done", id, &error);
      if (!item) {
        continue;
      }
      std::vector<std::size_t> error_points;
      for (const ResultRow& row : LoadPartialRows(spool.RowsPath(id))) {
        const auto index = row.Uint("point");
        if (index && IsErrorRow(row)) {
          error_points.push_back(static_cast<std::size_t>(*index));
        }
      }
      if (error_points.empty()) {
        continue;
      }
      const std::size_t round = item->attempt + 1;
      ResultRow event;
      if (round <= options.retry_budget) {
        WorkItem retry;
        retry.id = BaseId(id) + ".r" + std::to_string(round);
        retry.shard = item->shard;
        retry.shards = item->shards;
        retry.points = error_points;
        retry.attempt = round;
        if (spool.Enqueue(retry, &error)) {
          ++summary.retries;
          event.AddText("event", "points_retried");
          event.AddText("item", retry.id);
        } else {
          event.AddText("event", "retry_enqueue_failed");
          event.AddText("item", id);
        }
      } else {
        event.AddText("event", "points_exhausted");
        event.AddText("item", id);
      }
      event.AddInt("error_points", error_points.size());
      event.AddInt("round", round);
      spool.AppendEvent(std::move(event));
    }

    spawn_if_needed();

    const Spool::Counts counts = spool.CountItems();
    if (counts.queued == 0 && counts.running == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(options.poll_sec));
  }

  // Workers exit on their own once the queue drains; reap the stragglers.
  for (const auto& [pid, ordinal] : live) {
    (void)ordinal;
    int status = 0;
    ::waitpid(pid, &status, 0);
  }

  if (lease_service) {
    // Tell remote pollers the sweep is over — "drained", not "empty" — and
    // keep serving until every worker that held a lease has heard it, so
    // none finds a closed port mid-poll.  A worker whose polls are being
    // lost keeps retrying through the worst-case backoff of the default
    // client schedule, which bounds the wait; a worker that died never asks
    // again and costs the whole bound.
    lease_service->set_drained(true);
    lease_service->AwaitLesseesDrained(2.0 * options.poll_sec + 0.25 +
                                       WorstCaseRetryBackoffSec(HttpClientOptions{}));
  }

  if (http.running()) {
    http.Stop();
    std::error_code ec;
    std::filesystem::remove(spool.PortPath(), ec);
  }

  const Spool::Counts counts = spool.CountItems();
  const MergedRun merged = MergeSpoolLive(spool);
  summary.shards_done = counts.done;
  summary.shards_failed = counts.failed;
  summary.points_done = merged.rows.size();
  summary.error_points = merged.stats.error_rows;
  summary.complete = counts.queued == 0 && counts.running == 0;
  ResultRow event;
  event.AddText("event", "sweep_complete");
  event.AddInt("shards_done", summary.shards_done);
  event.AddInt("shards_failed", summary.shards_failed);
  event.AddInt("points_done", summary.points_done);
  event.AddInt("error_points", summary.error_points);
  spool.AppendEvent(std::move(event));
  return summary;
}

}  // namespace mobisim
