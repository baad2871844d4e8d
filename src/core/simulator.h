// Trace-driven simulator: runs a block-level workload through a
// StorageSystem and gathers the paper's metrics.
//
// Thread-safety contract (relied on by src/runner's parallel sweep engine;
// audited 2026-08, keep it true):
//   - RunSimulation and RunNamedWorkload share no mutable state: every piece
//     of simulation state (StorageSystem, devices, caches, RNGs, reservoir
//     samplers) is constructed per call, and the workload generators seed
//     their own Rng instances.  Concurrent calls from different threads are
//     safe, and results are bit-identical to serial execution regardless of
//     scheduling.
//   - A TraceView may be shared across concurrent RunSimulation calls; the
//     simulator only reads it (TraceView backings are immutable after
//     construction, including mmap'd ones).
//   - Do NOT share one StorageSystem/StorageDevice across threads, even
//     through const methods: some accessors refresh cached aggregates (e.g.
//     LogFlashDevice::counters() recomputes erase statistics into a mutable
//     member).  One simulation, one thread.
//   - Anything added to this path must stay free of function-local statics,
//     globals, and ambient RNG (rand, time-seeded generators); determinism
//     here is what makes parallel sweeps reproducible.
#ifndef MOBISIM_SRC_CORE_SIMULATOR_H_
#define MOBISIM_SRC_CORE_SIMULATOR_H_

#include <string>

#include "src/core/sim_config.h"
#include "src/core/sim_result.h"
#include "src/core/storage_system.h"
#include "src/trace/trace_record.h"
#include "src/trace/trace_view.h"

namespace mobisim {

// Runs `trace` under `config`.  The first config.warm_fraction of records
// warms the caches; energy and response statistics cover the remainder
// (section 4.2 of the paper).  It walks the view's columns in place, zero
// copy when the view maps a cache entry.
SimResult RunSimulation(const TraceView& trace, const SimConfig& config);

// The per-workload configuration rules of the paper's methodology, the one
// place every driver (RunNamedWorkload, RunSweep, the CLI tools) applies
// them: the hp trace runs without a DRAM cache, since it was captured below
// the buffer cache.
void ApplyWorkloadRules(const std::string& workload, SimConfig* config);

// Which settings each device kind reads: the one per-kind rule that
// EffectiveConfig applies and DescribeConfig labels by.
//   - Only a magnetic disk has a spindle: spin_down_after_us,
//     spin_down_policy and use_disk_geometry.
//   - Only log-structured flash (kFlashCard, kNandSsd) has a cleaner and an
//     FTL: ftl_policy, cleaning_policy, background_cleaning,
//     separate_cleaning_segment and interleave_prefill.
//   - Every other kind is flash, and reads flash_utilization, auto_capacity
//     and flash_async_erasure (a flash disk's capacity and pre-erased pool
//     follow them).
bool HasSpindle(DeviceKind kind);
bool HasCleaner(DeviceKind kind);

// `config` with every field its device kind never reads (above) reset to
// the SimConfig default, so two configs that simulate identically compare
// equal.
// A reset never changes a run's columns: export_columns takes
// ColumnGroupsOf(config) before any field resets.  The fault block is never
// touched.  RunSimulation of the result equals RunSimulation of `config`
// byte for byte.
SimConfig EffectiveConfig(const SimConfig& config);

// Convenience: generate the named workload ("mac", "dos", "hp", "synth"),
// lower it to block level, apply ApplyWorkloadRules, and simulate.  `scale`
// shrinks the workload for fast runs.
SimResult RunNamedWorkload(const std::string& workload, const SimConfig& config,
                           double scale = 1.0);

}  // namespace mobisim

#endif  // MOBISIM_SRC_CORE_SIMULATOR_H_
