// Fault-tolerant local sweep service: a dispatcher, a worker pool, and a
// persistent spool directory that survives any of them dying.
//
//   mobisim_sweepd serve  --spool DIR [--spec FILE] [key=value ...]
//                         [--shards N] [--workers N] [--retry-budget N]
//                         [--lease-sec S] [--poll-sec S] [--http PORT]
//                         [--http-bind-any]
//                         [common flags: --jobs --seed --replicas --jsonl
//                          --csv --db/--name/--sha --trace-cache --quiet]
//   mobisim_sweepd work   --spool DIR | --connect HOST:PORT
//                         both:      [--heartbeat-sec S] [--worker-name NAME]
//                                    [--throttle-ms N] [--kill-after-rows N]
//                                    [--jobs N] [--trace-cache DIR] [--quiet]
//                         --connect: [--chunk-rows N] [--poll-sec S]
//                                    [--connect-timeout S] [--io-timeout S]
//                                    [--retries N] [--backoff-base-sec S]
//                                    [--net-fault SPEC]
//   mobisim_sweepd status --spool DIR | --connect HOST:PORT
//   mobisim_sweepd merge  DIR [--jsonl F] [--csv F] [--db DIR --name N] [--quiet]
//
// `serve` creates the spool from the spec (or resumes an existing one: the
// spool is the durable state, delete it to start over), spawns `--workers`
// local worker processes, enforces leases, retries dead shards and poisoned
// `_error` points up to `--retry-budget`, and serves GET /status and
// GET /results on `--http` (0 = ephemeral; the port lands in
// <spool>/http.port).  When every shard settles it merges the shard outputs
// into <spool>/merged.jsonl, the requested sinks, and (with --db) a bench_db
// store — idempotently, keyed by spec fingerprint, so re-serving or
// re-merging the same spool never duplicates rows.
//
// `work` is the subordinate mode `serve` spawns; it also works standalone
// (point any number of shells at the same spool for extra throughput).
// Either way it speaks the lease protocol (POST /lease, /heartbeat,
// /results, /done).  With `--spool` it drives a lease service of its own
// over the spool, in-process, uploading each row as it is emitted and
// exiting once the queue is empty.  With `--connect` it needs no shared
// filesystem at all: the same requests go to the dispatcher over HTTP with
// connect/read deadlines, bounded exponential backoff with jitter, and
// idempotent chunked uploads, so machines anywhere the dispatcher's port is
// reachable can serve the sweep.  The transport flags apply to `--connect`
// only, and `work --spool` refuses them.  `--net-fault
// seed=7,drop=0.2,dup=0.2,delay=0.5,delay-ms=40` injects deterministic
// request drops/duplicates/delays for partition testing.  The dispatcher
// binds loopback unless `serve --http-bind-any` opts into the network.
//
// `merge` accepts a spool root, a spool's done/ directory, or a flat
// directory of `mobisim_sweep --shard` JSONL files — same code path, same
// dedup-by-fingerprint semantics (shared with `mobisim_sweep --merge`).
//
// Exit codes: serve 0 = clean complete, 2 = finished with failed shards or
// surviving `_error` points; work 0 = clean, 3 = finished but poisoned,
// 4 = (--connect only) dispatcher unreachable past the retry budget.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/bench_db/bench_db.h"
#include "src/runner/cli_options.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "src/sweepd/dispatcher.h"
#include "src/sweepd/merge.h"
#include "src/sweepd/spool.h"
#include "src/sweepd/worker.h"
#include "src/util/atomic_file.h"
#include "src/util/http_client.h"
#include "src/util/http_server.h"
#include "src/util/parse.h"

namespace {

using namespace mobisim;

int Usage() {
  std::fprintf(
      stderr,
      "usage: mobisim_sweepd serve  --spool DIR [--spec FILE] [key=value ...]\n"
      "                             [--shards N] [--workers N] [--retry-budget N]\n"
      "                             [--lease-sec S] [--poll-sec S] [--http PORT]\n"
      "                             [--http-bind-any]\n"
      "       mobisim_sweepd work   --spool DIR | --connect HOST:PORT\n"
      "                             both:      [--heartbeat-sec S] [--worker-name NAME]\n"
      "                                        [--throttle-ms N] [--kill-after-rows N]\n"
      "                             --connect: [--chunk-rows N] [--poll-sec S]\n"
      "                                        [--connect-timeout S] [--io-timeout S]\n"
      "                                        [--retries N] [--backoff-base-sec S]\n"
      "                                        [--net-fault seed=S,drop=R,dup=R,delay=R,delay-ms=M]\n"
      "       mobisim_sweepd status --spool DIR | --connect HOST:PORT\n"
      "       mobisim_sweepd merge  DIR\n"
      "%s",
      CommonFlagsUsage());
  return 2;
}

// "host:port" -> (host, port).  False (with a message) on anything else.
bool ParseHostPort(const std::string& text, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    std::fprintf(stderr, "error: --connect wants HOST:PORT, got '%s'\n",
                 text.c_str());
    return false;
  }
  const auto parsed = ParseUint64(text.substr(colon + 1));
  if (!parsed || *parsed == 0 || *parsed > 65535) {
    std::fprintf(stderr, "error: --connect port in '%s' is not in 1..65535\n",
                 text.c_str());
    return false;
  }
  *host = text.substr(0, colon);
  *port = static_cast<std::uint16_t>(*parsed);
  return true;
}

// --- serve ---------------------------------------------------------------

int RunServe(std::vector<std::string> args, const CliOptions& common) {
  std::string spool_root;
  std::string spec_file;
  std::vector<std::string> assignments;
  DispatcherOptions options;
  options.jobs_per_worker = common.jobs == 0 ? 1 : common.jobs;
  options.trace_cache_dir = common.trace_cache_dir;
  std::size_t shards = 0;  // 0 = pick from worker count
  bool workers_set = false;  // --workers 0 means "remote/external only"
  std::string error;

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: %s requires an argument\n", flag);
        return std::nullopt;
      }
      return args[++i];
    };
    auto count = [&](const char* flag) -> std::optional<std::uint64_t> {
      const auto text = value(flag);
      if (!text) {
        return std::nullopt;
      }
      const auto parsed = ParseUint64(*text);
      if (!parsed) {
        std::fprintf(stderr, "error: %s wants a non-negative integer, got '%s'\n",
                     flag, text->c_str());
      }
      return parsed;
    };
    auto seconds = [&](const char* flag) -> std::optional<double> {
      const auto text = value(flag);
      if (!text) {
        return std::nullopt;
      }
      const auto parsed = ParseFiniteDouble(*text);
      if (!parsed || *parsed <= 0.0) {
        std::fprintf(stderr, "error: %s wants a positive number of seconds\n", flag);
        return std::nullopt;
      }
      return parsed;
    };

    if (args[i] == "--spool") {
      const auto v = value("--spool");
      if (!v) return Usage();
      spool_root = *v;
    } else if (args[i] == "--spec") {
      const auto v = value("--spec");
      if (!v) return Usage();
      spec_file = *v;
    } else if (args[i] == "--shards") {
      const auto v = count("--shards");
      if (!v) return Usage();
      shards = *v;
    } else if (args[i] == "--workers") {
      const auto v = count("--workers");
      if (!v) return Usage();
      options.workers = *v;
      workers_set = true;
    } else if (args[i] == "--retry-budget") {
      const auto v = count("--retry-budget");
      if (!v) return Usage();
      options.retry_budget = *v;
    } else if (args[i] == "--lease-sec") {
      const auto v = seconds("--lease-sec");
      if (!v) return Usage();
      options.lease_sec = *v;
    } else if (args[i] == "--poll-sec") {
      const auto v = seconds("--poll-sec");
      if (!v) return Usage();
      options.poll_sec = *v;
    } else if (args[i] == "--http") {
      const auto v = count("--http");
      if (!v || *v > 65535) return Usage();
      options.http_port = static_cast<int>(*v);
    } else if (args[i] == "--http-bind-any") {
      options.http_bind_any = true;
    } else if (args[i] == "--throttle-ms") {
      const auto v = count("--throttle-ms");
      if (!v) return Usage();
      options.throttle_ms = *v;
    } else if (args[i] == "--kill-first-worker-after-rows") {
      const auto v = count("--kill-first-worker-after-rows");
      if (!v) return Usage();
      options.kill_first_worker_after_rows = *v;
    } else if (args[i].find('=') != std::string::npos) {
      assignments.push_back(args[i]);
    } else {
      std::fprintf(stderr, "error: unrecognised argument '%s'\n", args[i].c_str());
      return Usage();
    }
  }
  if (spool_root.empty()) {
    std::fprintf(stderr, "error: serve requires --spool DIR\n");
    return Usage();
  }
  if (options.http_bind_any && options.http_port < 0) {
    std::fprintf(stderr, "error: --http-bind-any requires --http PORT\n");
    return Usage();
  }
  if (options.workers == 0 && !workers_set) {
    options.workers = 2;
  }
  if (shards == 0) {
    // Oversplit so a dead shard costs little; with `--workers 0` (remote
    // workers only) there is no local pool to size against.
    shards = options.workers > 0 ? options.workers * 2 : 4;
  }

  Spool spool(spool_root);
  auto meta = spool.ReadMeta(&error);
  if (!meta) {
    // No spool yet: assemble its spec as parseable source text — the file,
    // then command-line assignments and common-surface overrides as
    // later-wins lines.  The spool stores these bytes verbatim; workers
    // parse the same text, so the grid and fingerprint cannot drift.
    std::string spec_text;
    if (!spec_file.empty()) {
      std::ifstream in(spec_file);
      if (!in) {
        std::fprintf(stderr, "cannot open spec %s\n", spec_file.c_str());
        return 1;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      spec_text = buffer.str();
      if (!spec_text.empty() && spec_text.back() != '\n') {
        spec_text += "\n";
      }
    }
    for (const std::string& token : assignments) {
      spec_text += token + "\n";
    }
    if (common.seed) {
      spec_text += "seeds = " + std::to_string(*common.seed) + "\n";
    }
    if (common.replicas) {
      spec_text += "replicas = " + std::to_string(*common.replicas) + "\n";
    }
    const std::string name = common.db_name.empty() ? "sweep" : common.db_name;
    if (!Spool::Create(spool_root, spec_text, name, shards, &error)) {
      std::fprintf(stderr, "error creating spool: %s\n", error.c_str());
      return 1;
    }
    meta = spool.ReadMeta(&error);
    if (!meta) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (!common.quiet) {
      std::fprintf(stderr, "mobisim_sweepd: spool %s created: %zu points in %zu shards\n",
                   spool_root.c_str(), meta->points, meta->shards);
    }
  } else {
    // Resuming: the spool's spec is canonical; a conflicting --spec would
    // silently run a different experiment, so refuse it.
    if (!spec_file.empty() || !assignments.empty()) {
      std::fprintf(stderr,
                   "error: %s already holds a spool; resume it without --spec or "
                   "key=value, or delete it to start over\n",
                   spool_root.c_str());
      return 1;
    }
    if (!common.quiet) {
      std::fprintf(stderr, "mobisim_sweepd: resuming spool %s (%zu points, %zu shards)\n",
                   spool_root.c_str(), meta->points, meta->shards);
    }
  }

  options.spool_root = spool_root;
  if (!common.quiet) {
    options.log = &std::cerr;
  }
  const DispatchSummary summary = RunDispatcher(options);
  if (!common.quiet) {
    std::fprintf(stderr,
                 "mobisim_sweepd: %zu shards done, %zu failed; %zu points "
                 "(%zu error), %zu requeues, %zu point retries, %zu workers\n",
                 summary.shards_done, summary.shards_failed, summary.points_done,
                 summary.error_points, summary.requeues, summary.retries,
                 summary.workers_spawned);
  }
  if (!summary.complete) {
    std::fprintf(stderr, "mobisim_sweepd: sweep did not settle; spool kept at %s\n",
                 spool_root.c_str());
    return 2;
  }

  const auto merged = MergeShardDir(spool_root, &error);
  if (!merged) {
    std::fprintf(stderr, "error merging %s: %s\n", spool_root.c_str(), error.c_str());
    return 1;
  }
  const int export_status = ExportMergedRun(*merged, common, meta->name,
                                            spool.MergedPath(), "mobisim_sweepd");
  if (export_status != 0) {
    return export_status;
  }
  if (!common.quiet) {
    std::fprintf(stderr, "mobisim_sweepd: merged run at %s\n",
                 spool.MergedPath().c_str());
  }
  return (summary.shards_failed > 0 || summary.error_points > 0) ? 2 : 0;
}

// --- work ----------------------------------------------------------------

int RunWork(std::vector<std::string> args, const CliOptions& common) {
  WorkerOptions options;
  std::string connect;
  std::string http_only_flag;  // the first flag that needs --connect
  options.jobs = common.jobs == 0 ? 1 : common.jobs;
  options.trace_cache_dir = common.trace_cache_dir;
  if (!common.quiet) {
    options.log = &std::cerr;
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: %s requires an argument\n", flag.c_str());
        return std::nullopt;
      }
      return args[++i];
    };
    auto count = [&]() -> std::optional<std::uint64_t> {
      const auto text = value();
      return text ? ParseUint64(*text) : std::nullopt;
    };
    auto seconds = [&]() -> std::optional<double> {
      const auto text = value();
      const auto parsed = text ? ParseFiniteDouble(*text) : std::nullopt;
      if (!parsed || *parsed <= 0.0) {
        std::fprintf(stderr, "error: %s wants a positive number of seconds\n",
                     flag.c_str());
        return std::nullopt;
      }
      return parsed;
    };
    if (flag == "--spool") {
      const auto v = value();
      if (!v) return Usage();
      options.spool_root = *v;
    } else if (flag == "--connect") {
      const auto v = value();
      if (!v) return Usage();
      connect = *v;
    } else if (flag == "--worker-name") {
      const auto v = value();
      if (!v) return Usage();
      options.worker_name = *v;
    } else if (flag == "--heartbeat-sec") {
      const auto v = seconds();
      if (!v) return Usage();
      options.heartbeat_sec = *v;
    } else if (flag == "--throttle-ms") {
      const auto v = count();
      if (!v) return Usage();
      options.throttle_ms = *v;
    } else if (flag == "--kill-after-rows") {
      const auto v = count();
      if (!v) return Usage();
      options.kill_after_rows = *v;
    } else {
      // Every flag from here on configures the HTTP transport only.
      if (http_only_flag.empty()) {
        http_only_flag = flag;
      }
      if (flag == "--chunk-rows") {
        const auto v = count();
        if (!v || *v == 0) return Usage();
        options.chunk_rows = *v;
      } else if (flag == "--poll-sec") {
        const auto v = seconds();
        if (!v) return Usage();
        options.poll_sec = *v;
      } else if (flag == "--connect-timeout") {
        const auto v = seconds();
        if (!v) return Usage();
        options.http.connect_timeout_sec = *v;
      } else if (flag == "--io-timeout") {
        const auto v = seconds();
        if (!v) return Usage();
        options.http.io_timeout_sec = *v;
      } else if (flag == "--retries") {
        const auto v = count();
        if (!v) return Usage();
        options.http.max_retries = *v;
      } else if (flag == "--backoff-base-sec") {
        const auto v = seconds();
        if (!v) return Usage();
        options.http.backoff_base_sec = *v;
      } else if (flag == "--net-fault") {
        const auto v = value();
        if (!v) return Usage();
        std::string fault_error;
        const auto config = ParseNetFaultSpec(*v, &fault_error);
        if (!config) {
          std::fprintf(stderr, "error: %s\n", fault_error.c_str());
          return Usage();
        }
        options.net_fault = *config;
      } else {
        std::fprintf(stderr, "error: unrecognised argument '%s'\n",
                     flag.c_str());
        return Usage();
      }
    }
  }
  if (options.spool_root.empty() == connect.empty()) {
    std::fprintf(stderr, "error: work takes exactly one of --spool DIR or "
                         "--connect HOST:PORT\n");
    return Usage();
  }
  if (!options.spool_root.empty() && !http_only_flag.empty()) {
    std::fprintf(stderr, "error: %s applies to work --connect only, not --spool\n",
                 http_only_flag.c_str());
    return Usage();
  }
  if (!connect.empty() && !ParseHostPort(connect, &options.host, &options.port)) {
    return Usage();
  }

  const WorkerSummary summary = RunWorkerLoop(options);
  if (!common.quiet) {
    std::fprintf(stderr,
                 "mobisim_sweepd: worker done: %zu items, %zu rows "
                 "(%zu inherited, %zu errors, %zu lost leases, "
                 "%llu transport failures)%s\n",
                 summary.items, summary.rows, summary.inherited,
                 summary.error_rows, summary.lost_leases,
                 static_cast<unsigned long long>(summary.transport_failures),
                 summary.drained ? "; sweep drained" : "");
  }
  if (summary.unreachable) {
    return WorkerOptions::kExitUnreachable;
  }
  return summary.error_rows > 0 ? WorkerOptions::kExitPoisoned
                                : WorkerOptions::kExitClean;
}

// --- status --------------------------------------------------------------

// Human-readable per-lease lines.  stderr, so stdout stays pure JSON for
// scripted pollers (the CI job pipes it straight into a JSON parser).
void PrintLeaseLines(const Spool& spool) {
  for (const ResultRow& row : SpoolLeaseRows(spool, 0.0)) {
    const double age = row.Number("heartbeat_age_sec", -1.0);
    if (age < 0.0) {
      std::fprintf(stderr, "lease %s attempt=%d owner=%llu rows=%llu (no heartbeat yet)\n",
                   row.Text("item").c_str(),
                   static_cast<int>(row.Number("attempt", 0)),
                   static_cast<unsigned long long>(row.Number("owner", 0)),
                   static_cast<unsigned long long>(row.Number("rows", 0)));
    } else {
      std::fprintf(stderr, "lease %s attempt=%d owner=%llu rows=%llu hb_age=%.1fs\n",
                   row.Text("item").c_str(),
                   static_cast<int>(row.Number("attempt", 0)),
                   static_cast<unsigned long long>(row.Number("owner", 0)),
                   static_cast<unsigned long long>(row.Number("rows", 0)), age);
    }
  }
}

int RunStatus(std::vector<std::string> args, const CliOptions& common) {
  std::string spool_root;
  std::string connect;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--spool" && i + 1 < args.size()) {
      spool_root = args[++i];
    } else if (args[i] == "--connect" && i + 1 < args.size()) {
      connect = args[++i];
    } else {
      std::fprintf(stderr, "error: unrecognised argument '%s'\n", args[i].c_str());
      return Usage();
    }
  }
  if (spool_root.empty() && connect.empty()) {
    std::fprintf(stderr, "error: status requires --spool DIR or --connect HOST:PORT\n");
    return Usage();
  }

  // A remote dispatcher: ask it and print its answer, nothing local to scan.
  if (!connect.empty()) {
    std::string host;
    std::uint16_t port = 0;
    if (!ParseHostPort(connect, &host, &port)) {
      return Usage();
    }
    HttpClientOptions http;
    http.max_retries = 0;  // a status poll either answers now or fails now
    HttpClient client(host, port, http);
    HttpResponse response;
    std::string error;
    if (!client.Fetch("GET", "/status", "", &response, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fputs(response.body.c_str(), stdout);
    return response.status == 200 ? 0 : 1;
  }

  Spool spool(spool_root);

  // A live dispatcher publishes its port; prefer its view (it knows the
  // elapsed time and serves even while this process cannot read half-written
  // state).  Fall back to scanning the spool directly.  HttpGet carries its
  // own deadline, so a hung dispatcher yields the fallback, not a hang.
  std::ifstream port_file(spool.PortPath());
  std::uint64_t port = 0;
  if (port_file >> port && port > 0 && port <= 65535) {
    std::string body;
    std::string error;
    if (HttpGet(static_cast<std::uint16_t>(port), "/status", &body, &error)) {
      std::fputs(body.c_str(), stdout);
      if (!common.quiet) {
        PrintLeaseLines(spool);
      }
      return 0;
    }
  }
  std::string error;
  const auto meta = spool.ReadMeta(&error);
  if (!meta) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", RenderStatusJson(spool, *meta, 0.0, 0.0).c_str());
  if (!common.quiet) {
    PrintLeaseLines(spool);
  }
  return 0;
}

// --- merge ---------------------------------------------------------------

int RunMerge(std::vector<std::string> args, const CliOptions& common) {
  std::string dir;
  for (const std::string& arg : args) {
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unrecognised argument '%s'\n", arg.c_str());
      return Usage();
    }
    if (!dir.empty()) {
      std::fprintf(stderr, "error: merge takes exactly one directory\n");
      return Usage();
    }
    dir = arg;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "error: merge requires a shard directory\n");
    return Usage();
  }
  std::string error;
  const auto merged = MergeShardDir(dir, &error);
  if (!merged) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::string name = common.db_name.empty() ? "sweep" : common.db_name;
  // A spool knows its own run name; use it unless --name overrides.
  if (common.db_name.empty()) {
    Spool spool(dir);
    std::string meta_error;
    if (const auto meta = spool.ReadMeta(&meta_error)) {
      name = meta->name;
    }
  }
  return ExportMergedRun(*merged, common, name, "", "mobisim_sweepd");
}

int RunMain(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return Usage();
  }
  const std::string command = args.front();
  args.erase(args.begin());

  CliOptions common;
  std::string error;
  if (!ExtractCommonFlags(&args, &common, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }

  if (command == "serve") {
    return RunServe(std::move(args), common);
  }
  if (command == "work") {
    return RunWork(std::move(args), common);
  }
  if (command == "status") {
    return RunStatus(std::move(args), common);
  }
  if (command == "merge") {
    return RunMerge(std::move(args), common);
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobisim_sweepd: fatal: %s\n", e.what());
    return 1;
  }
}
