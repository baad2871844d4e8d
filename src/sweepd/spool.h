// Persistent spool directory: the one source of truth of a sweep service.
//
// A sweep is split into shard work items that live as small JSON files and
// move between four state directories by atomic rename — the classic
// maildir-style queue, chosen so that a dispatcher, N worker processes, and
// a human with `ls` all see exactly one consistent state per item, and a
// crash at any instant leaves the spool recoverable.  Workers change it
// only through the lease protocol (src/sweepd/lease.h): a LeaseService
// performs each claim, heartbeat, row append and finish below, whether the
// worker calls it in-process or over HTTP.  The dispatcher reads it
// directly to expire leases, requeue and retry.
//
//   <root>/spec.spec              canonical ExperimentSpec text (the truth)
//   <root>/spool.json             run name, spec fingerprint, shards, points
//   <root>/queue/<id>.task        items waiting for a worker
//   <root>/running/<id>.task      leased items
//   <root>/running/<id>.hb        lease heartbeat (src/util/heartbeat.h)
//   <root>/running/<id>.a<K>.jsonl.part  attempt-K streamed rows (resume input)
//   <root>/done/<id>.task         completed items
//   <root>/done/<id>.jsonl        their rows (complete: WriteFileAtomic)
//   <root>/failed/<id>.task       items whose retry budget is exhausted
//   <root>/events.jsonl           append-only event log
//   <root>/http.port              live status endpoint's port, while serving
//   <root>/merged.jsonl           final merged run (written by serve/merge)
//
// Claiming is rename(queue/X, running/X): exactly one of two racing workers
// succeeds, the other sees ENOENT and moves on.  Requeueing writes the item
// (attempt+1) back into queue/ atomically before unlinking the running copy,
// so a dispatcher crash can duplicate a queue entry but never lose one —
// and re-running a shard is safe because point results are deterministic.
#ifndef MOBISIM_SRC_SWEEPD_SPOOL_H_
#define MOBISIM_SRC_SWEEPD_SPOOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/result_io.h"
#include "src/runner/experiment_spec.h"

namespace mobisim {

// One unit of dispatchable work: a whole shard of the grid (points.empty())
// or an explicit point list (a retry of individual `_error` points).
struct WorkItem {
  std::string id;                   // "shard-0003", retries "shard-0003.r1"
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::vector<std::size_t> points;  // empty = all of index % shards == shard
  std::size_t attempt = 0;          // 0 first try; bumped by every requeue/retry
};

std::string WorkItemToJson(const WorkItem& item);
std::optional<WorkItem> WorkItemFromJson(const std::string& text, std::string* error);

// Identity of the whole run, written once at spool creation.
struct SpoolMeta {
  std::string name;       // run name (doubles as the bench_db spec name)
  std::string spec_hash;  // SpecFingerprint of spec.spec
  std::size_t shards = 0;
  std::size_t points = 0;  // total grid size
  std::string created;
  std::string host;
};

class Spool {
 public:
  explicit Spool(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }

  // Creates the layout, writes the spec source text verbatim (after
  // validating that it parses — workers re-parse these exact bytes, so
  // dispatcher and workers cannot disagree about the grid) plus the
  // metadata, and enqueues `shards` whole-shard items.  Refuses a root that
  // already holds a spool (delete it explicitly to restart from scratch — a
  // half-finished spool is resumable state, not garbage).  Returns nullopt
  // with `error` on failure.
  static std::optional<Spool> Create(const std::string& root,
                                     const std::string& spec_text,
                                     const std::string& name, std::size_t shards,
                                     std::string* error);

  std::optional<SpoolMeta> ReadMeta(std::string* error) const;
  std::optional<ExperimentSpec> LoadSpec(std::string* error) const;
  // The verbatim bytes of spec.spec — what `POST /lease` hands to a remote
  // worker, so a worker across the network parses the exact same text a
  // shared-filesystem worker would.
  std::optional<std::string> ReadSpecText(std::string* error) const;

  // --- paths ---
  std::string SpecPath() const { return root_ + "/spec.spec"; }
  std::string MetaPath() const { return root_ + "/spool.json"; }
  std::string TaskPath(const std::string& state, const std::string& id) const {
    return root_ + "/" + state + "/" + id + ".task";
  }
  std::string HeartbeatPath(const std::string& id) const {
    return root_ + "/running/" + id + ".hb";
  }
  std::string PartPath(const std::string& id, std::size_t attempt) const {
    return root_ + "/running/" + id + ".a" + std::to_string(attempt) +
           ".jsonl.part";
  }
  std::string RowsPath(const std::string& id) const {
    return root_ + "/done/" + id + ".jsonl";
  }
  std::string EventsPath() const { return root_ + "/events.jsonl"; }
  std::string PortPath() const { return root_ + "/http.port"; }
  std::string MergedPath() const { return root_ + "/merged.jsonl"; }

  // --- item lifecycle ---
  bool Enqueue(const WorkItem& item, std::string* error) const;
  // Claims the lexicographically first queued item by renaming it into
  // running/ (the rename IS the lease) and writes the first heartbeat for
  // `owner`.  nullopt with empty `error` when the queue is empty.
  std::optional<WorkItem> Claim(std::uint64_t owner, std::string* error) const;
  // Moves a finished item's task from running/ to done/ (its rows file must
  // already be in place) and removes the lease + part files.  Returns false
  // when the lease was lost (the item is no longer in running/): the caller
  // must treat the shard as re-owned by someone else and touch nothing.
  bool FinishItem(const WorkItem& item, std::string* error) const;
  // Dispatcher recovery: writes the item back into queue/ with attempt+1,
  // then retires the running copy.  Part files are kept — the next owner
  // resumes from the rows the dead worker already streamed.
  bool Requeue(const WorkItem& item, std::string* error) const;
  // Retires an item whose retry budget is exhausted into failed/.
  bool FailItem(const WorkItem& item, const std::string& state_from,
                std::string* error) const;

  // --- inspection ---
  // Item ids present in a state directory ("queue", "running", ...), sorted.
  std::vector<std::string> ListIds(const std::string& state) const;
  std::optional<WorkItem> ReadItem(const std::string& state, const std::string& id,
                                   std::string* error) const;
  // Every attempt's part file for `id` that exists on disk, sorted.
  std::vector<std::string> PartPaths(const std::string& id) const;

  struct Counts {
    std::size_t queued = 0;
    std::size_t running = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
  };
  Counts CountItems() const;

  // Appends one event line (a "ts" field is prepended) to events.jsonl.
  // Single-write O_APPEND semantics keep concurrent appenders line-atomic.
  void AppendEvent(ResultRow event) const;

 private:
  std::string root_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_SPOOL_H_
