// Worker process loop: lease items, run them, stream rows, finalize.
//
// There is one worker loop, and it talks only the lease protocol of
// src/sweepd/lease.h: POST /lease to claim (the grant carries the spec text
// verbatim and the resume set), POST /heartbeat from a background thread,
// POST /results with result rows, POST /done to finalize.  The four POSTs
// go through one request function with one of two transports:
//
//   --spool DIR          the worker mounts the spool and drives an
//                        in-process LeaseService over it.  The service is
//                        drained from the start, so an empty queue (or a
//                        claim error) ends the loop; it stamps this
//                        process's pid as the heartbeat owner; and every
//                        row is uploaded as it is emitted, so a kill loses
//                        at most the in-flight row.
//   --connect HOST:PORT  the same POSTs over HTTP to a dispatcher.  Rows go
//                        up in chunks, every request runs under connect/read
//                        deadlines with bounded exponential backoff, and an
//                        empty queue is polled until the dispatcher says
//                        the sweep is drained.  A dispatcher that stays
//                        unreachable through the retry budget ends the loop.
//
// A worker is stateless by design: everything it needs arrives with the
// lease, so any number of workers can serve one sweep and a freshly
// respawned worker picks up where a dead one stopped — points a predecessor
// already streamed are skipped, and only the remainder is simulated.  Point
// results are deterministic, so a re-run of the same point (duplicated work
// after a lease expires spuriously) merges away as an exact-duplicate row.
// An HTTP 410 on any request means the lease was forfeited: the worker
// drops the item and claims the next.
//
// Failed points become `_error` rows (the sweep engine's fault
// classification) rather than killing the shard; a worker that produced
// any says so in its exit status, so a dispatcher can retry exactly those
// points.
#ifndef MOBISIM_SRC_SWEEPD_WORKER_H_
#define MOBISIM_SRC_SWEEPD_WORKER_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "src/util/http_client.h"

namespace mobisim {

struct WorkerOptions {
  // The transport: a spool this process mounts (non-empty spool_root), or a
  // dispatcher's HTTP endpoint.
  std::string spool_root;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::size_t jobs = 1;      // simulation threads inside this worker
  std::string worker_name;   // reported in /lease and events; default host:pid
  std::string trace_cache_dir;
  double heartbeat_sec = 1.0;
  std::ostream* log = nullptr;  // per-item progress lines; null = quiet

  // HTTP transport only.
  double poll_sec = 0.5;       // wait between /lease polls while queue is empty
  std::size_t chunk_rows = 8;  // rows per /results upload
  HttpClientOptions http;      // timeouts, retries, backoff
  NetFaultConfig net_fault;    // injected drops/delays/duplicates (tests, CI)

  // Test hooks, used by the crash-recovery tests and the CI smoke jobs:
  // sleep after each emitted row (so a status poll can observe a live run),
  // and die via _Exit(137) after emitting N rows in total — no /done, no
  // unwinding: SIGKILL as far as the spool and the dispatcher can tell.
  std::size_t throttle_ms = 0;
  std::size_t kill_after_rows = 0;  // 0 = never

  static constexpr int kExitClean = 0;
  static constexpr int kExitPoisoned = 3;     // finished, but with _error rows
  static constexpr int kExitUnreachable = 4;  // dispatcher gone past retries
};

struct WorkerSummary {
  std::size_t items = 0;       // items this worker finalized via /done
  std::size_t rows = 0;        // rows simulated and uploaded
  std::size_t inherited = 0;   // points skipped via the lease's resume set
  std::size_t error_rows = 0;  // poisoned points among its own rows
  std::size_t lost_leases = 0;
  std::uint64_t transport_failures = 0;  // failed HTTP attempts (before retry)
  bool drained = false;      // the service confirmed no work is left
  bool unreachable = false;  // loop ended because the dispatcher vanished
};

// Leases and runs items until the service reports the sweep drained (or,
// in-process, the queue is empty), then returns.  The process exit code
// should be kExitUnreachable when `unreachable`, else kExitPoisoned when
// error_rows > 0.
WorkerSummary RunWorkerLoop(const WorkerOptions& options);

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_WORKER_H_
