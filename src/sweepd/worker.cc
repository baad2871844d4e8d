#include "src/sweepd/worker.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/runner/cli_options.h"
#include "src/runner/sweep_runner.h"
#include "src/sweepd/lease.h"
#include "src/sweepd/merge.h"
#include "src/sweepd/spool.h"
#include "src/trace/trace_cache.h"
#include "src/util/parse.h"

namespace mobisim {

namespace {

// Parses a flat-JSON response body (trailing newline tolerated).
std::optional<ResultRow> ParseResponseRow(const std::string& body) {
  std::string text = body;
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  std::string error;
  return RowFromJson(text, &error);
}

// "3,7,19" -> {3, 7, 19}; malformed tokens are skipped (the resume set is
// an optimization — re-simulating a point is always safe).
std::set<std::uint64_t> ParseIndexSet(const std::string& text) {
  std::set<std::uint64_t> indices;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const auto value = ParseUint64(text.substr(start, comma - start));
    start = comma + 1;
    if (value) {
      indices.insert(*value);
    }
  }
  return indices;
}

std::string TokenLine(const std::string& token) {
  ResultRow row;
  row.AddText("token", token);
  return RowToJson(row) + "\n";
}

// Where the four lease POSTs go: a LeaseService this process runs over the
// spool it mounts, or a dispatcher's HTTP endpoint.
class LeaseTransport {
 public:
  // False with `error` when the spool's metadata or spec cannot be read.
  bool Open(const WorkerOptions& options, std::string* error) {
    if (!options.spool_root.empty()) {
      spool_.emplace(options.spool_root);
      auto meta = spool_->ReadMeta(error);
      if (!meta) {
        return false;
      }
      auto spec_text = spool_->ReadSpecText(error);
      if (!spec_text) {
        return false;
      }
      service_ = LeaseService::InProcess(&*spool_, std::move(*meta),
                                         std::move(*spec_text));
      return true;
    }
    HttpClientOptions http = options.http;
    // Distinct default jitter seeds keep a fleet's retry backoffs
    // unsynchronized even when every worker launched with the same command.
    if (http.jitter_seed == HttpClientOptions{}.jitter_seed) {
      http.jitter_seed = static_cast<std::uint64_t>(::getpid());
    }
    client_ = std::make_unique<HttpClient>(options.host, options.port, http);
    if (options.net_fault.enabled()) {
      injector_ = std::make_unique<NetFaultInjector>(options.net_fault);
      client_->set_fault_injector(injector_.get());
    }
    http.max_retries = 0;  // a missed beat is fine; the next one is soon
    beat_client_ = std::make_unique<HttpClient>(options.host, options.port, http);
    return true;
  }

  bool in_process() const { return service_ != nullptr; }

  // The one request function; false on a transport failure (no answer at
  // all).  Heartbeats travel a channel of their own: over HTTP a second
  // client (HttpClient is not thread-safe) that never retries and never
  // sees injected faults — on a real deployment heartbeats share the
  // network's fate, but in fault-injection tests a dropped heartbeat would
  // only add nondeterministic lease churn on top of the faults under test.
  bool Post(const std::string& path, const std::string& body,
            HttpResponse* response, std::string* error, bool heartbeat = false) {
    if (service_) {
      HttpRequest request;
      request.method = "POST";
      request.path = path;
      request.body = body;
      *response = *service_->Handle(request);  // a lease path always answers
      return true;
    }
    return heartbeat ? beat_client_->Fetch("POST", path, body, response, error)
                     : client_->FetchWithRetry("POST", path, body, response, error);
  }

  std::uint64_t transport_failures() const {
    return client_ ? client_->transport_failures() : 0;
  }

 private:
  std::optional<Spool> spool_;
  std::unique_ptr<LeaseService> service_;
  std::unique_ptr<NetFaultInjector> injector_;
  std::unique_ptr<HttpClient> client_;
  std::unique_ptr<HttpClient> beat_client_;
};

// Background /heartbeat POSTs for one leased item, carrying the rows
// simulated so far; a 410 answer marks the lease lost.
class Heartbeat {
 public:
  Heartbeat(LeaseTransport* transport, double interval_sec, std::string token,
            const std::atomic<std::uint64_t>* rows,
            std::atomic<bool>* lease_lost)
      : transport_(transport),
        interval_sec_(interval_sec),
        token_(std::move(token)),
        rows_(rows),
        lease_lost_(lease_lost) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~Heartbeat() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void Loop() {
    while (true) {
      Beat();
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait_for(lock, std::chrono::duration<double>(interval_sec_),
                     [this] { return stopping_; });
      if (stopping_ || lease_lost_->load()) {
        return;
      }
    }
  }

  void Beat() {
    ResultRow body;
    body.AddText("token", token_);
    body.AddInt("rows", rows_->load());
    HttpResponse response;
    std::string error;
    if (!transport_->Post("/heartbeat", RowToJson(body) + "\n", &response,
                          &error, /*heartbeat=*/true)) {
      return;  // transport failure: the lease survives until lease_sec
    }
    if (response.status == 410) {
      lease_lost_->store(true);
    }
  }

  LeaseTransport* transport_;
  double interval_sec_;
  std::string token_;
  const std::atomic<std::uint64_t>* rows_;
  std::atomic<bool>* lease_lost_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread thread_;
};

// One granted lease, end to end: skip the resume set, simulate the
// remaining points, upload their rows, finalize with /done.
void RunLeasedItem(const ResultRow& grant, const WorkerOptions& options,
                   LeaseTransport* transport, TraceCache* trace_cache,
                   std::atomic<std::uint64_t>* total_rows,
                   WorkerSummary* summary) {
  const std::string token = grant.Text("token");
  std::string item_error;
  const auto item = WorkItemFromJson(grant.Text("item"), &item_error);
  std::string spec_error;
  const auto spec = ParseExperimentSpec(grant.Text("spec"), &spec_error);
  if (!item || !spec) {
    // A service handing out unparseable work is not retryable from here;
    // drop the lease (it expires server-side) and report it lost.
    ++summary->lost_leases;
    if (options.log != nullptr) {
      *options.log << "sweepd-worker: bad lease: "
                   << (item ? spec_error : item_error) << "\n";
    }
    return;
  }

  std::vector<ExperimentPoint> points = EnumerateGrid(*spec);
  points = item->points.empty()
               ? FilterShard(std::move(points), item->shard, item->shards)
               : FilterPoints(std::move(points), item->points);
  const std::set<std::uint64_t> done = ParseIndexSet(grant.Text("done_points"));
  if (!done.empty()) {
    std::vector<ExperimentPoint> remaining;
    for (ExperimentPoint& point : points) {
      if (done.find(point.index) == done.end()) {
        remaining.push_back(std::move(point));
      }
    }
    summary->inherited += points.size() - remaining.size();
    points = std::move(remaining);
  }

  std::atomic<std::uint64_t> item_rows{0};
  std::atomic<bool> lease_lost{false};
  Heartbeat heartbeat(transport, options.heartbeat_sec, token, &item_rows,
                      &lease_lost);

  // In-process every row reaches the part file as it is emitted, so a kill
  // loses at most the in-flight row; a request there costs a part-file
  // append and the lease's spool check (the service rewrites the heartbeat
  // file at most every lease_sec/10, not per row).  Over HTTP rows travel
  // in chunks, amortizing the round trip.
  const std::size_t chunk_rows =
      transport->in_process() ? 1 : options.chunk_rows;
  // Upload state, touched only from on_emit (the sweep serializes emits).
  std::string pending;
  std::size_t pending_rows = 0;
  bool upload_failed = false;
  const auto flush_chunk = [&]() {
    if (pending.empty() || upload_failed || lease_lost.load()) {
      return;
    }
    HttpResponse response;
    std::string error;
    if (!transport->Post("/results", TokenLine(token) + pending, &response,
                         &error)) {
      upload_failed = true;  // keep simulating; the lease expires server-side
      if (options.log != nullptr) {
        *options.log << "sweepd-worker: upload: " << error << "\n";
      }
      return;
    }
    if (response.status == 410) {
      lease_lost.store(true);
      return;
    }
    if (response.status != 200) {
      upload_failed = true;
      if (options.log != nullptr) {
        *options.log << "sweepd-worker: upload rejected: " << response.body;
      }
      return;
    }
    pending.clear();
    pending_rows = 0;
  };

  std::size_t error_rows = 0;
  SweepOptions sweep_options;
  sweep_options.threads = options.jobs;
  sweep_options.trace_cache = trace_cache;
  sweep_options.on_emit = [&](const SweepOutcome& outcome) {
    pending += RowToJson(outcome.row);
    pending += '\n';
    ++pending_rows;
    error_rows += IsErrorRow(outcome.row) ? 1 : 0;
    item_rows.fetch_add(1);
    const std::uint64_t total = total_rows->fetch_add(1) + 1;
    if (pending_rows >= chunk_rows) {
      flush_chunk();
    }
    if (options.throttle_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.throttle_ms));
    }
    if (options.kill_after_rows > 0 && total >= options.kill_after_rows) {
      // Injected death mid-stream: no /done, no heartbeat stop, no
      // destructors — SIGKILL as far as the spool can tell.
      std::_Exit(137);
    }
  };

  RunSweep(points, sweep_options);
  heartbeat.Stop();
  if (!upload_failed) {
    flush_chunk();
  }
  if (upload_failed || lease_lost.load()) {
    ++summary->lost_leases;
    return;
  }

  // Finalize.  Any answer but 200 loses the lease, a 409 ("incomplete
  // upload") included: the worker keeps no copy of its rows to replay, so
  // the lease expires, the dispatcher requeues the item, and the next
  // attempt inherits this one's part rows as its resume set — the path a
  // killed worker takes.
  HttpResponse response;
  std::string error;
  ResultRow done_body;
  done_body.AddText("token", token);
  const bool sent =
      transport->Post("/done", RowToJson(done_body) + "\n", &response, &error);
  if (!sent || response.status != 200) {
    ++summary->lost_leases;
    if (options.log != nullptr) {
      *options.log << "sweepd-worker: done rejected: "
                   << (sent ? std::to_string(response.status) + " " + response.body
                            : error + "\n");
    }
    return;
  }

  ++summary->items;
  summary->rows += item_rows.load();
  summary->error_rows += error_rows;
  if (options.log != nullptr) {
    *options.log << "sweepd-worker: " << item->id << " done ("
                 << item_rows.load() << " rows)\n";
  }
}

}  // namespace

WorkerSummary RunWorkerLoop(const WorkerOptions& options) {
  WorkerSummary summary;
  WorkerOptions resolved = options;
  if (resolved.worker_name.empty()) {
    resolved.worker_name =
        HostName() + ":" + std::to_string(static_cast<long>(::getpid()));
  }
  LeaseTransport transport;
  std::string error;
  if (!transport.Open(resolved, &error)) {
    if (resolved.log != nullptr) {
      *resolved.log << "sweepd-worker: " << error << "\n";
    }
    return summary;
  }
  std::unique_ptr<TraceCache> trace_cache;
  if (!resolved.trace_cache_dir.empty()) {
    trace_cache = std::make_unique<TraceCache>(resolved.trace_cache_dir);
  }

  std::atomic<std::uint64_t> total_rows{0};
  while (true) {
    ResultRow request;
    request.AddText("worker", resolved.worker_name);
    HttpResponse response;
    if (!transport.Post("/lease", RowToJson(request) + "\n", &response,
                        &error)) {
      summary.unreachable = true;
      if (resolved.log != nullptr) {
        *resolved.log << "sweepd-worker: dispatcher unreachable: " << error
                      << "\n";
      }
      break;
    }
    if (response.status != 200 && resolved.log != nullptr) {
      *resolved.log << "sweepd-worker: lease rejected (" << response.status
                    << "): " << response.body;
    }
    const auto grant = response.status == 200 ? ParseResponseRow(response.body)
                                              : std::nullopt;
    const std::string state = grant ? grant->Text("state") : "";
    if (state == "drained") {
      summary.drained = true;
      break;
    }
    if (state != "lease") {
      // An in-process service is drained from the start, so this is a claim
      // error on our own spool, and polling would only repeat it.  Over
      // HTTP, "empty" means work is running elsewhere: poll again.
      if (transport.in_process()) {
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(resolved.poll_sec));
      continue;
    }
    RunLeasedItem(*grant, resolved, &transport, trace_cache.get(), &total_rows,
                  &summary);
  }
  summary.transport_failures = transport.transport_failures();
  return summary;
}

}  // namespace mobisim
