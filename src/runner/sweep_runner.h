// Parallel execution of experiment grids.
//
// RunSweep fans a list of ExperimentPoints across a fixed thread pool.  Every
// source of randomness is seeded per point (the workload generator from
// point.seed, the result reservoirs from compile-time constants), and traces
// are generated once per distinct (workload, scale, seed) — or loaded
// bit-identically from the optional persistent trace cache — and shared
// read-only, so a parallel run produces bit-identical SimResults to a serial
// run of the same points — scheduling order cannot leak into the numbers.
//
// Emission is the sweep's one per-point output.  Each finished outcome goes,
// strictly in enumeration order whichever point finishes first, to the sinks
// and then to `on_emit`, and is freed: it waits only until every point
// before it has left.  The sweep returns nothing, so a caller keeps only
// what it collects there.
//
// Each distinct effective configuration is simulated once; rows keep their
// own labels.  Points on the same trace whose configs differ only in fields
// their device never reads (EffectiveConfig in src/core/simulator.h: say a
// magnetic disk crossed with utilizations or ftl policies) share one
// simulation, and every point still gets its own row, byte-identical to the
// row a run of that point alone would produce.
//
// Memory follows the points in flight, not the grid.  Every distinct trace
// is acquired up front, in parallel, and that acquisition counts as a use
// just before the first dispatch; simulations are then dispatched in point
// order.  A trace stays resident between two consecutive uses at most
// `threads` dispatch positions apart (a serial sweep counts as 1).  With a
// persistent trace cache it is dropped after any other use and re-mapped
// from the cache at its next one (the cache is the spill tier); without one
// it stays until its last simulation has run.  A simulation's percentile
// samples are released once its row is built (DESIGN.md §13).
#ifndef MOBISIM_SRC_RUNNER_SWEEP_RUNNER_H_
#define MOBISIM_SRC_RUNNER_SWEEP_RUNNER_H_

#include <cstddef>
#include <functional>
#include <ostream>
#include <vector>

#include "src/core/sim_result.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"

namespace mobisim {

class TraceCache;
struct SweepOutcome;

struct SweepOptions {
  // Worker threads; 0 = one per hardware core, 1 = serial (no pool).
  std::size_t threads = 0;
  // Optional sinks; rows are written in point order as prefixes complete.
  std::vector<ResultSink*> sinks;
  // Progress meter destination (e.g. &std::cerr); null disables it.
  std::ostream* progress = nullptr;
  // Optional persistent trace cache (src/trace/trace_cache.h): generated
  // traces are loaded from / stored to it, borrowed for the call.  Results
  // are byte-identical with the cache on, off, cold, or warm.
  TraceCache* trace_cache = nullptr;
  // The one per-point channel: invoked once per point, in strict emission
  // (point) order, after the sinks have seen the row, under the emission
  // lock — so it may touch the sinks' streams (e.g. flush a spool file so a
  // later crash loses at most the in-flight row) and update counters without
  // its own locking.  The outcome is freed when it returns; copy what you
  // need.  Keep it cheap: it serializes emission.
  std::function<void(const SweepOutcome&)> on_emit;
};

// One point's outcome, as `on_emit` sees it.  It lives only for that call.
struct SweepOutcome {
  ExperimentPoint point;
  // The simulation's result, with its percentile samples released
  // (ReservoirSample::Release): the percentiles are in `row`, and reading
  // them from the reservoirs fails a check.
  SimResult result;
  // Config metadata + flattened result, exactly what the sinks received.
  ResultRow row;
  // A point whose simulation (or trace generation) threw is marked failed
  // rather than aborting the sweep: `row` then carries the point metadata
  // plus an `_error` column with `error`, `result` is default-constructed,
  // and sinks whose AcceptsErrorRows() is false never see the row.
  bool failed = false;
  std::string error;
};

// Metadata columns (point, workload, seed, replica, scale, device,
// utilization, sizes, cleaning policy, then its groups' ftl, backend and
// power_loss_interval_sec) prepended to every exported row.
ResultRow PointToRow(const ExperimentPoint& point);

// The full export schema: PointToRow columns followed by the ResultToRow
// fields not already present.  This is exactly what sinks receive for every
// point, so sweep rows always share one schema.
ResultRow MergePointAndResult(const ExperimentPoint& point, const SimResult& result);

// CSV header of the sweep export schema for rows carrying `columns`.  It
// does not depend on the data, so an empty sweep or shard still writes its
// siblings' header: pass this, with the grid's ColumnGroupsOf, as
// CsvResultSink's default header.
std::string SweepCsvHeader(ColumnGroups columns = {});

// For each point, the position in `points` of the point whose simulation it
// shares: the lowest-positioned point with the same trace (workload, scale,
// seed) and the same EffectiveConfig after ApplyWorkloadRules.  A point that
// leads its own group maps to itself, so the number of simulations a sweep
// runs is the number of i with result[i] == i.
std::vector<std::size_t> SimulationLeaders(const std::vector<ExperimentPoint>& points);

// Runs the points, emitting each outcome in point order through the sinks
// and `on_emit`, then finishes the sinks.  Honours the paper's hp
// methodology (the hp trace is simulated without a DRAM cache, matching
// RunNamedWorkload); the adjusted config is what the row reports.
void RunSweep(const std::vector<ExperimentPoint>& points, const SweepOptions& options);

}  // namespace mobisim

#endif  // MOBISIM_SRC_RUNNER_SWEEP_RUNNER_H_
