#include "src/runner/sweep_runner.h"

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

}  // namespace

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
  ResultRow row = PointToRow(point);
  ResultRow result_row = ResultToRow(result);
  for (ResultField& field : result_row.fields) {
    if (row.Find(field.key) == nullptr) {
      row.fields.push_back(std::move(field));
    }
  }
  return row;
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

  // Emission bookkeeping: rows leave in point order, streamed as soon as the
  // completed prefix grows.
  std::mutex emit_mu;
  std::vector<bool> ready(points.size(), false);
  std::size_t next_emit = 0;

  auto run_point = [&](std::size_t i) {
    ExperimentPoint point = points[i];
    ApplyWorkloadRules(point.workload, &point.config);
    const CachedTrace& cached =
        traces.at(TraceKey{point.workload, point.scale, point.seed});

    SweepOutcome& outcome = outcomes[i];
    outcome.point = point;
    // A failing point (trace generation or simulation) becomes an `_error`
    // row instead of taking the whole sweep down with it.
    if (cached.trace.empty()) {
      outcome.failed = true;
      outcome.error = cached.error;
    } else {
      try {
        outcome.result = RunSimulation(cached.trace, point.config);
        outcome.row = MergePointAndResult(point, outcome.result);
      } catch (const std::exception& e) {
        outcome.failed = true;
        outcome.error = e.what();
      }
    }
    if (outcome.failed) {
      outcome.row = PointToRow(point);
      outcome.row.AddText("_error", outcome.error);
    }

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

  ParallelFor(pool.get(), points.size(), run_point);
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
