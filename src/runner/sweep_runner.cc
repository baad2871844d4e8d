#include "src/runner/sweep_runner.h"

#include <algorithm>
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

// A cached trace, or the reason it could not be generated.  A generation
// failure fails only the points that need this trace, never the whole sweep.
struct CachedTrace {
  TraceView trace;
  std::string error;
};

// Generates each distinct trace once, in parallel; afterwards the map is
// read-only and safe to share across workers.  With a persistent cache,
// each trace is an mmap-backed zero-copy view of the disk entry when a
// valid one exists, and is generated + stored otherwise
// (LoadOrGenerateTraceView is thread-safe, so the parallel fan-out needs no
// extra locking).
std::map<TraceKey, CachedTrace> BuildTraceMap(const std::vector<ExperimentPoint>& points,
                                              ThreadPool* pool,
                                              TraceCache* persistent) {
  std::map<TraceKey, CachedTrace> cache;
  for (const ExperimentPoint& point : points) {
    cache.emplace(TraceKey{point.workload, point.scale, point.seed}, CachedTrace{});
  }
  std::vector<std::pair<const TraceKey, CachedTrace>*> entries;
  entries.reserve(cache.size());
  for (auto& entry : cache) {
    entries.push_back(&entry);
  }
  ParallelFor(pool, entries.size(), [&entries, persistent](std::size_t i) {
    const TraceKey& key = entries[i]->first;
    try {
      entries[i]->second.trace =
          LoadOrGenerateTraceView(persistent, key.workload, key.scale, key.seed);
    } catch (const std::exception& e) {
      entries[i]->second.error = e.what();
    }
  });
  return cache;
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

// Fills `outcome->row` from its point and either the flattened result of its
// simulation or its error.
void FillRow(SweepOutcome* outcome, const ResultRow& result_row) {
  if (outcome->failed) {
    outcome->row = PointToRow(outcome->point);
    outcome->row.AddText("_error", outcome->error);
  } else {
    outcome->row = MergePointAndResultRow(outcome->point, result_row);
  }
}

}  // namespace

std::vector<std::size_t> SimulationLeaders(const std::vector<ExperimentPoint>& points) {
  struct Leader {
    std::size_t position;
    SimConfig effective;
  };
  // Only points on the same trace can share a simulation; within a trace,
  // effective configs compare memberwise.
  std::map<TraceKey, std::vector<Leader>> buckets;
  std::vector<std::size_t> leaders(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentPoint& point = points[i];
    SimConfig config = point.config;
    ApplyWorkloadRules(point.workload, &config);
    config = EffectiveConfig(config);
    std::vector<Leader>& bucket = buckets[TraceKey{point.workload, point.scale, point.seed}];
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
  // FTL/backend columns join the metadata only when the FTL layer is in play
  // (swept or explicitly exported) so historical sweeps keep their schema.
  if (point.config.export_ftl_metrics ||
      point.config.ftl_policy != FtlPolicyKind::kLogStructured) {
    row.AddText("ftl", FtlPolicyKindName(point.config.ftl_policy));
    row.AddText("backend", point.config.use_disk_geometry ? "geometry" : "average-cost");
  }
  // Fault dimensions join the metadata only on fault runs so fault-free
  // sweeps keep their historical schema byte-for-byte.
  if (point.config.fault.enabled() || point.config.fault.export_metrics) {
    row.AddNumber("power_loss_interval_sec",
                  SecFromUs(point.config.fault.power_loss_interval_us));
  }
  return row;
}

ResultRow MergePointAndResult(const ExperimentPoint& point, const SimResult& result) {
  return MergePointAndResultRow(point, ResultToRow(result));
}

std::string SweepCsvHeader() {
  // The schema depends only on field *names*, never on data, so a
  // default-constructed point and result enumerate exactly the columns a
  // real sweep row carries.
  const ExperimentPoint point;
  const SimResult result;
  return RowToCsvHeader(MergePointAndResult(point, result));
}

std::vector<SweepOutcome> RunSweep(const std::vector<ExperimentPoint>& points,
                                   const SweepOptions& options) {
  std::vector<SweepOutcome> outcomes(points.size());
  if (points.empty()) {
    for (ResultSink* sink : options.sinks) {
      sink->Finish();
    }
    return outcomes;
  }

  const std::size_t threads =
      options.threads == 0 ? ThreadPool::DefaultThreadCount() : options.threads;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
  }

  const auto traces = BuildTraceMap(points, pool.get(), options.trace_cache);
  ProgressMeter meter("sweep", points.size(), options.progress);

  // One simulation per group of points that share a trace and an effective
  // config: the leader simulates into its own outcome, each follower copies
  // the leader's result under its own labels.
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

  // Emission bookkeeping: rows leave in point order, streamed as soon as the
  // completed prefix grows.
  std::mutex emit_mu;
  std::vector<bool> ready(points.size(), false);
  std::size_t next_emit = 0;

  auto publish = [&](std::size_t i) {
    meter.Advance();
    std::lock_guard<std::mutex> lock(emit_mu);
    ready[i] = true;
    while (next_emit < points.size() && ready[next_emit]) {
      for (ResultSink* sink : options.sinks) {
        if (outcomes[next_emit].failed && !sink->AcceptsErrorRows()) {
          continue;
        }
        sink->Write(outcomes[next_emit].row);
      }
      if (options.on_emit) {
        options.on_emit(outcomes[next_emit]);
      }
      ++next_emit;
    }
  };

  auto run_group = [&](std::size_t g) {
    const std::size_t lead = leaders[g];
    SweepOutcome& outcome = outcomes[lead];
    outcome.point = points[lead];
    ApplyWorkloadRules(outcome.point.workload, &outcome.point.config);
    const ExperimentPoint& point = outcome.point;
    const CachedTrace& cached =
        traces.at(TraceKey{point.workload, point.scale, point.seed});

    // A failing group (trace generation or simulation) becomes one `_error`
    // row per member instead of taking the whole sweep down with it.
    if (cached.trace.empty()) {
      outcome.failed = true;
      outcome.error = cached.error;
    } else {
      try {
        outcome.result = RunSimulation(cached.trace, point.config);
      } catch (const std::exception& e) {
        outcome.failed = true;
        outcome.error = e.what();
      }
    }
    // The result is flattened once per group: ResultToRow sorts the
    // percentile reservoirs, which would otherwise dominate a follower's cost.
    ResultRow result_row;
    if (!outcome.failed) {
      result_row = ResultToRow(outcome.result);
    }
    FillRow(&outcome, result_row);
    // Each row leaves as soon as it is built, so a follower's row costs its
    // own emission slot rather than delaying the leader's.  Emitted outcomes
    // stay untouched, so followers may still read the leader's.
    publish(lead);
    for (const std::size_t f : followers[lead]) {
      SweepOutcome& follower = outcomes[f];
      follower.point = points[f];
      ApplyWorkloadRules(follower.point.workload, &follower.point.config);
      follower.failed = outcome.failed;
      follower.error = outcome.error;
      if (!follower.failed) {
        follower.result = outcome.result;
      }
      FillRow(&follower, result_row);
      publish(f);
    }
  };

  ParallelFor(pool.get(), leaders.size(), run_group);
  meter.Finish();
  for (ResultSink* sink : options.sinks) {
    sink->Finish();
  }
  return outcomes;
}

std::vector<SweepOutcome> RunSweep(const ExperimentSpec& spec,
                                   const SweepOptions& options) {
  return RunSweep(EnumerateGrid(spec), options);
}

}  // namespace mobisim
