// The lease protocol: the one way a worker takes, feeds and finishes work.
//
// Every worker speaks four POSTs, and this service translates each into
// the spool operation it stands for — rename() as the claim, a heartbeat
// file as liveness, a part file for streamed rows:
//
//   POST /lease      claim one queued item.  The response carries the work
//                    item, the canonical spec text *verbatim* (every worker
//                    parses identical bytes), a lease token, and the point
//                    indices already streamed by previous attempts (the
//                    resume set).
//   POST /heartbeat  rewrite the item's heartbeat file.  The dispatcher's
//                    lease-expiry loop reads only the spool: a worker that
//                    stops beating (killed, partitioned) simply lets the
//                    item requeue through the normal spool lifecycle.
//   POST /results    append result rows to the attempt's part file.
//                    Idempotent by point fingerprint: a duplicated or
//                    replayed chunk (retries, injected network faults)
//                    changes nothing, so clients may retry blindly.
//   POST /done       finalize: merge part rows, publish done/<id>.jsonl
//                    atomically, move the task, log shard_done — validated
//                    against the expected point count so a torn upload can
//                    never finalize short.
//
// Two transports reach it.  The dispatcher serves it over HTTP for `work
// --connect` workers (Handle plugs into its HttpServer).  A `work --spool`
// worker builds its own service over the spool it mounts (InProcess) and
// calls Handle directly; that service is drained from the start and stamps
// the worker's pid as every lease's heartbeat owner, so the dispatcher's
// dead-owner check requeues a killed spawned worker's item at once.
//
// Failure ordering is resolved by the token table plus the spool itself: a
// token is valid only while its item sits in running/ with the granted
// attempt number and its heartbeat still names the granted owner.  When the
// dispatcher requeues an expired lease it invalidates the token, so a late
// upload from a partitioned worker gets 410 Gone and cannot corrupt the
// merged output; the rows it streamed before the partition stay in the old
// part file, where the next claimant inherits them (deterministic points
// make any overlap collapse as exact duplicates at merge time).  An
// in-process service never hears of the requeue, but the same spool checks
// answer 410 all the same.
//
// Tokens are capabilities against *accidental* misuse (a worker replaying a
// stale lease), not authentication: the endpoint binds to loopback unless
// explicitly told otherwise, and trusts its network.
#ifndef MOBISIM_SRC_SWEEPD_LEASE_H_
#define MOBISIM_SRC_SWEEPD_LEASE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <string>

#include "src/sweepd/spool.h"
#include "src/util/http_server.h"

namespace mobisim {

// Points a whole-shard item covers (FilterShard arithmetic) or the explicit
// retry list's size — what /done requires before it will finalize.
std::size_t ExpectedItemPoints(const WorkItem& item, std::size_t total_points);

struct LeaseServiceOptions {
  double lease_sec = 30.0;  // echoed to workers so they pace heartbeats
  std::ostream* log = nullptr;
};

class LeaseService {
 public:
  LeaseService(const Spool* spool, SpoolMeta meta, std::string spec_text,
               LeaseServiceOptions options);

  // The service a `work --spool` worker drives directly: drained from the
  // start (an empty queue answers "drained", ending the worker's loop), and
  // every lease owned by this process's pid.
  static std::unique_ptr<LeaseService> InProcess(const Spool* spool,
                                                 SpoolMeta meta,
                                                 std::string spec_text);

  // Serves the four lease endpoints; nullopt when `request.path` is not one
  // of them (the caller falls through to its own routes).  Thread-safe.
  std::optional<HttpResponse> Handle(const HttpRequest& request);

  // Dispatcher recovery hook: called before an item is requeued or failed so
  // the holder's token dies with the lease.  Uploads racing this call are
  // still safe — Validate re-checks the running/ state under the lock.
  void InvalidateItem(const std::string& id);

  // Once true, /lease answers "drained" instead of "empty" when the queue is
  // dry, so pollers may exit instead of spinning.  The dispatcher sets it
  // once it has confirmed (post retry-enqueue) that no further work will
  // ever appear; an in-process service starts drained.
  void set_drained(bool drained) { drained_.store(drained); }

  // Blocks until every worker ever granted a lease has been answered
  // "drained" at least once, or until `timeout_sec` passes.  Workers are
  // told apart by their self-reported names.  The dispatcher calls it after
  // set_drained(true): a worker whose last polls are lost is still inside
  // its retry backoff and will ask again.
  void AwaitLesseesDrained(double timeout_sec);

  std::size_t active_leases() const;

 private:
  struct Lease {
    WorkItem item;
    std::uint64_t owner = 0;
    std::string worker;  // self-reported name, for events and status
    // Fingerprints of every row already in the item's part files (seeded at
    // grant time, grown per upload): the idempotency filter for /results.
    std::set<std::string> fingerprints;
    std::uint64_t uploaded = 0;  // rows accepted, mirrored into the heartbeat
    std::chrono::steady_clock::time_point last_beat;  // last heartbeat write
  };

  HttpResponse HandleLease(const HttpRequest& request);
  HttpResponse HandleHeartbeat(const HttpRequest& request);
  HttpResponse HandleResults(const HttpRequest& request);
  HttpResponse HandleDone(const HttpRequest& request);

  // Looks up `token` and proves the lease still holds: item in running/ with
  // the granted attempt, heartbeat owned by the granted owner.  On any
  // mismatch the token is erased and `why` explains the 410.  mu_ held.
  Lease* Validate(const std::string& token, std::string* why);

  const Spool* spool_;
  SpoolMeta meta_;
  std::string spec_text_;
  // The grid's optional column groups, named in each done file's metadata
  // so a merge of the done/ directory alone writes the grid's CSV header.
  ColumnGroups columns_;
  LeaseServiceOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, Lease> leases_;  // token -> lease
  // Names of workers granted a lease that have not yet been answered
  // "drained" (guarded by mu_); AwaitLesseesDrained waits for it to empty.
  std::set<std::string> not_told_drained_;
  std::condition_variable told_drained_cv_;
  std::uint64_t next_owner_ = 0;
  std::uint64_t pid_owner_ = 0;  // nonzero: the one owner of every lease
  std::atomic<bool> drained_{false};
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_LEASE_H_
