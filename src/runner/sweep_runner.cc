#include "src/runner/sweep_runner.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/core/simulator.h"
#include "src/flash/segment_manager.h"
#include "src/trace/trace_cache.h"
#include "src/util/progress.h"
#include "src/util/thread_pool.h"

namespace mobisim {

namespace {

struct TraceKey {
  std::string workload;
  double scale;
  std::uint64_t seed;

  bool operator<(const TraceKey& other) const {
    if (workload != other.workload) {
      return workload < other.workload;
    }
    if (scale != other.scale) {
      return scale < other.scale;
    }
    return seed < other.seed;
  }
};

// A distinct trace of the sweep.  `acquired` is false when its up-front
// acquisition failed (or produced no records): every point on it then fails
// with `error`, never the whole sweep.
struct SweepTrace {
  TraceKey key;
  // The residency the up-front acquisition belongs to.  It has no uses when
  // the trace's first leader is far, and the acquired view is then dropped.
  std::size_t acquisition = 0;
  bool acquired = false;
  std::string error;
};

// One stretch of a trace's residency: a run of its uses, each at most
// `threads` dispatch positions after the one before.  The first use to arrive
// maps the view (or finds it filled by the up-front acquisition, when that
// counts as the run's first use); the last use drops the stretch's hold, so
// the view lives on only in the leaders still simulating on it.  Leaders in
// flight together share the one view.
struct Residency {
  std::size_t trace = 0;
  std::size_t uses_left = 0;
  std::mutex mu;
  TraceView view;
};

// Which trace each leader reads and in which residency.  Dispatch positions
// are leader indices; the up-front acquisition counts as a use just before
// position 0.  With a persistent cache a use further than `threads` positions
// from the previous one starts a new residency, re-mapped from the cache;
// without one a trace has a single residency, kept until its last leader.
struct TraceSchedule {
  std::vector<SweepTrace> traces;
  std::deque<Residency> residencies;
  // Per dispatch position.
  std::vector<std::size_t> residency_of;
};

TraceSchedule PlanTraces(const std::vector<ExperimentPoint>& points,
                         const std::vector<std::size_t>& leaders, std::size_t threads,
                         bool remap) {
  TraceSchedule schedule;
  std::map<TraceKey, std::size_t> ids;
  // Per trace: one past the dispatch position of its latest use (the
  // acquisition is 0), and that use's residency.
  struct Latest {
    std::size_t use;
    std::size_t residency;
  };
  std::vector<Latest> latest;
  auto open_residency = [&schedule](std::size_t t) {
    schedule.residencies.emplace_back().trace = t;
    return schedule.residencies.size() - 1;
  };
  schedule.residency_of.reserve(leaders.size());
  for (std::size_t g = 0; g < leaders.size(); ++g) {
    const ExperimentPoint& point = points[leaders[g]];
    const auto [it, inserted] = ids.emplace(
        TraceKey{point.workload, point.scale, point.seed}, schedule.traces.size());
    const std::size_t t = it->second;
    if (inserted) {
      schedule.traces.push_back(SweepTrace{it->first, open_residency(t), false, {}});
      latest.push_back(Latest{0, schedule.traces.back().acquisition});
    }
    if (remap && g + 1 - latest[t].use > threads) {
      latest[t].residency = open_residency(t);
    }
    latest[t].use = g + 1;
    ++schedule.residencies[latest[t].residency].uses_left;
    schedule.residency_of.push_back(latest[t].residency);
  }
  return schedule;
}

// Acquires every distinct trace once, in parallel, and keeps the views whose
// acquisition starts a residency.  With a persistent cache each trace is an
// mmap-backed zero-copy view of the disk entry when a valid one exists, and
// is generated + stored otherwise (LoadOrGenerateTraceView is thread-safe, so
// the fan-out needs no extra locking).
void AcquireTraces(TraceSchedule* schedule, ThreadPool* pool, TraceCache* persistent) {
  ParallelFor(pool, schedule->traces.size(), [schedule, persistent](std::size_t t) {
    SweepTrace& trace = schedule->traces[t];
    try {
      TraceView view = LoadOrGenerateTraceView(persistent, trace.key.workload,
                                               trace.key.scale, trace.key.seed);
      trace.acquired = !view.empty();
      Residency& residency = schedule->residencies[trace.acquisition];
      if (residency.uses_left > 0) {
        residency.view = std::move(view);
      }
    } catch (const std::exception& e) {
      trace.error = e.what();
    }
  });
}

// The view for one use of `residency`'s trace: the resident one, or a fresh
// map through the cache (which verifies the entry, and regenerates it if it
// has vanished).  The last use of the residency releases its hold.
TraceView UseTrace(Residency* residency, const TraceKey& key, TraceCache* persistent) {
  std::lock_guard<std::mutex> lock(residency->mu);
  --residency->uses_left;
  if (!residency->view) {
    residency->view = LoadOrGenerateTraceView(persistent, key.workload, key.scale, key.seed);
  }
  TraceView view = residency->view;
  if (residency->uses_left == 0) {
    residency->view = TraceView();
  }
  return view;
}

// PointToRow(point) followed by the `result_row` fields it does not hold.
ResultRow MergePointAndResultRow(const ExperimentPoint& point, const ResultRow& result_row) {
  ResultRow row = PointToRow(point);
  for (const ResultField& field : result_row.fields) {
    if (row.Find(field.key) == nullptr) {
      row.fields.push_back(field);
    }
  }
  return row;
}

}  // namespace

std::vector<std::size_t> SimulationLeaders(const std::vector<ExperimentPoint>& points) {
  // Only points on the same trace can share a simulation, so the points are
  // grouped by trace first; within a trace, effective configs compare
  // memberwise.  Only one trace's leader configs are held at a time.
  std::map<TraceKey, std::vector<std::size_t>> by_trace;
  for (std::size_t i = 0; i < points.size(); ++i) {
    by_trace[TraceKey{points[i].workload, points[i].scale, points[i].seed}].push_back(i);
  }
  struct Leader {
    std::size_t position;
    SimConfig effective;
  };
  std::vector<std::size_t> leaders(points.size());
  std::vector<Leader> bucket;
  for (const auto& [key, members] : by_trace) {
    bucket.clear();
    for (const std::size_t i : members) {
      SimConfig config = points[i].config;
      ApplyWorkloadRules(points[i].workload, &config);
      config = EffectiveConfig(config);
      const auto same = std::find_if(bucket.begin(), bucket.end(), [&config](const Leader& l) {
        return l.effective == config;
      });
      if (same == bucket.end()) {
        leaders[i] = i;
        bucket.push_back(Leader{i, std::move(config)});
      } else {
        leaders[i] = same->position;
      }
    }
  }
  return leaders;
}

ResultRow PointToRow(const ExperimentPoint& point) {
  ResultRow row;
  row.AddInt("point", point.index);
  row.AddText("workload", point.workload);
  row.AddText("device", point.config.device.name);
  row.AddInt("seed", point.seed);
  row.AddInt("replica", point.replica);
  row.AddNumber("scale", point.scale);
  row.AddNumber("utilization", point.config.flash_utilization);
  row.AddInt("dram_bytes", point.config.dram_bytes);
  row.AddInt("sram_bytes", point.config.sram_bytes);
  row.AddInt("capacity_bytes", point.config.capacity_bytes);
  row.AddInt("auto_capacity", point.config.auto_capacity ? 1 : 0);
  row.AddText("cleaning_policy", CleaningPolicyName(point.config.cleaning_policy));
  // Optional groups in their frozen order: FTL, then fault.
  const ColumnGroups columns = ColumnGroupsOf(point.config);
  if (columns.Has(ColumnGroup::kFtl)) {
    row.AddText("ftl", FtlPolicyKindName(point.config.ftl_policy));
    row.AddText("backend", point.config.use_disk_geometry ? "geometry" : "average-cost");
  }
  if (columns.Has(ColumnGroup::kFault)) {
    row.AddNumber("power_loss_interval_sec",
                  SecFromUs(point.config.fault.power_loss_interval_us));
  }
  return row;
}

ResultRow MergePointAndResult(const ExperimentPoint& point, const SimResult& result) {
  return MergePointAndResultRow(point, ResultToRow(result));
}

std::string SweepCsvHeader(ColumnGroups columns) {
  // The schema depends only on field *names* and the groups, never on data,
  // so a default point and result enumerate exactly a real row's columns.
  ExperimentPoint point;
  point.config.export_columns = columns;
  SimResult result;
  result.columns = columns;
  return RowToCsvHeader(MergePointAndResult(point, result));
}

void RunSweep(const std::vector<ExperimentPoint>& points, const SweepOptions& options) {
  if (points.empty()) {
    for (ResultSink* sink : options.sinks) {
      sink->Finish();
    }
    return;
  }

  const std::size_t threads =
      options.threads == 0 ? ThreadPool::DefaultThreadCount() : options.threads;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
  }

  // One simulation per group of points that share a trace and an effective
  // config: the leader simulates, and every member's outcome, the leader's
  // included, is built from that one result under the member's own labels.
  const std::vector<std::size_t> leader_of = SimulationLeaders(points);
  std::vector<std::size_t> leaders;
  std::vector<std::vector<std::size_t>> followers(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (leader_of[i] == i) {
      leaders.push_back(i);
    } else {
      followers[leader_of[i]].push_back(i);
    }
  }

  TraceSchedule schedule =
      PlanTraces(points, leaders, threads, options.trace_cache != nullptr);
  AcquireTraces(&schedule, pool.get(), options.trace_cache);
  ProgressMeter meter("sweep", points.size(), options.progress);

  // Rows leave in point order: a finished outcome waits here only until
  // every point before it has left, then goes to the sinks and on_emit and
  // is freed.
  std::mutex emit_mu;
  std::map<std::size_t, SweepOutcome> waiting;
  std::size_t next_emit = 0;

  auto publish = [&](std::size_t i, SweepOutcome outcome) {
    meter.Advance();
    std::lock_guard<std::mutex> lock(emit_mu);
    waiting.emplace(i, std::move(outcome));
    for (auto it = waiting.begin(); it != waiting.end() && it->first == next_emit;
         it = waiting.erase(it), ++next_emit) {
      for (ResultSink* sink : options.sinks) {
        if (it->second.failed && !sink->AcceptsErrorRows()) {
          continue;
        }
        sink->Write(it->second.row);
      }
      if (options.on_emit) {
        options.on_emit(it->second);
      }
    }
  };

  auto run_group = [&](std::size_t g) {
    const std::size_t lead = leaders[g];
    SimConfig config = points[lead].config;
    ApplyWorkloadRules(points[lead].workload, &config);
    Residency& residency = schedule.residencies[schedule.residency_of[g]];
    const SweepTrace& trace = schedule.traces[residency.trace];

    // A failing group (trace generation or simulation) becomes one `_error`
    // row per member instead of taking the whole sweep down with it.
    bool failed = !trace.acquired;
    std::string error = trace.error;
    SimResult result;
    if (!failed) {
      try {
        result = RunSimulation(UseTrace(&residency, trace.key, options.trace_cache), config);
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      }
    }
    // The result is flattened once per group: ResultToRow sorts the
    // percentile reservoirs, which would otherwise dominate a follower's cost.
    // The row then holds the percentiles, so the result drops its samples
    // before any member copies it.
    ResultRow result_row;
    if (!failed) {
      result_row = ResultToRow(result);
      result.read_percentiles_ms.Release();
      result.write_percentiles_ms.Release();
    }
    // Each row leaves as soon as it is built, so a follower's row costs its
    // own emission slot rather than delaying the leader's.
    auto publish_member = [&](std::size_t i) {
      SweepOutcome outcome;
      outcome.point = points[i];
      ApplyWorkloadRules(outcome.point.workload, &outcome.point.config);
      outcome.failed = failed;
      outcome.error = error;
      if (failed) {
        outcome.row = PointToRow(outcome.point);
        outcome.row.AddText("_error", error);
      } else {
        outcome.result = result;
        outcome.row = MergePointAndResultRow(outcome.point, result_row);
      }
      publish(i, std::move(outcome));
    };
    publish_member(lead);
    for (const std::size_t f : followers[lead]) {
      publish_member(f);
    }
  };

  ParallelFor(pool.get(), leaders.size(), run_group);
  meter.Finish();
  for (ResultSink* sink : options.sinks) {
    sink->Finish();
  }
}

}  // namespace mobisim
