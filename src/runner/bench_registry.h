// Declarative registry of the paper's benches.
//
// Every figure, table, ablation and related-system study registers one
// BenchDef: a name, a description for `mobisim_bench list`, its scaling
// knobs, and a run function.  The single `mobisim_bench` multi-tool routes
// all of them through the src/runner sweep engine and the shared ResultSink
// stack, so every bench gains `--jsonl`/`--csv` export, `--jobs N` parallel
// execution, `--seed`/`--replicas` overrides and bench_db storage without
// hand-rolled flag loops or output plumbing.
//
// A bench's run function receives a BenchContext and talks to the engine at
// whichever level fits its structure:
//
//   - RunGrid(spec): a declarative ExperimentSpec grid, fanned across cores
//     by RunSweep.  Most paper figures are one or a few of these.
//   - RunPoints(points): hand-built ExperimentPoints for grids whose axes
//     are not spec dimensions (e.g. Figure 4 couples capacity and
//     utilization).  Same engine, same sinks, same determinism contract.
//   - Emit(row): measurements that do not run the trace-driven simulator at
//     all (testbed microbenchmarks, eNVy transactions, wear-out runs).
//     Rows still flow to the shared sinks — tagged with the bench name and
//     a running point index — but only to schema-free ones (JSONL), since
//     their columns vary bench to bench.
//
// Text output is the bench's own: run functions print the historical
// tables/plots to stdout, byte-identical to the pre-registry binaries.
#ifndef MOBISIM_SRC_RUNNER_BENCH_REGISTRY_H_
#define MOBISIM_SRC_RUNNER_BENCH_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"

namespace mobisim {

class BenchContext;
class TraceCache;

struct BenchDef {
  std::string name;         // registry key, e.g. "fig2_utilization"
  std::string description;  // one line for `mobisim_bench list`
  std::string source;       // paper anchor: "Table 4", "Figure 2", "ablation", ...
  std::string dims;         // human summary of the swept/measured axes

  // Workload scale: the value used when the caller passes none, and the
  // scaled-down value used under --smoke.  Benches with fixed-size
  // measurements (microbenchmarks) set uses_scale = false.
  bool uses_scale = true;
  double default_scale = 1.0;
  double smoke_scale = 0.1;

  // Optional bench-specific count (workload seeds, endurance cycles,
  // transactions...); 0 means the bench has no such knob.  param_help names
  // it in `mobisim_bench list` output.
  std::uint64_t default_param = 0;
  std::uint64_t smoke_param = 0;
  std::string param_help;

  std::function<void(BenchContext&)> run;
};

// Execution environment of one bench run: resolved knobs plus the engine
// and sink plumbing.  Constructed by RunBench; benches only consume it.
class BenchContext {
 public:
  struct Options {
    double scale = 0.0;       // 0 = bench default (or smoke) scale
    std::uint64_t param = 0;  // 0 = bench default (or smoke) param
    bool smoke = false;
    std::size_t threads = 0;  // SweepOptions.threads: 0 = all cores
    std::optional<std::uint64_t> seed;    // override every grid's seed list
    std::optional<std::size_t> replicas;  // override every grid's replicas
    std::vector<ResultSink*> sinks;       // shared export sinks (may be empty)
    TraceCache* trace_cache = nullptr;    // persistent trace cache (borrowed)
  };

  BenchContext(const BenchDef& def, const Options& options);

  const BenchDef& def() const { return def_; }
  double scale() const { return scale_; }
  std::uint64_t param() const { return param_; }
  bool smoke() const { return options_.smoke; }
  std::size_t threads() const { return options_.threads; }

  // Enumerates and runs the spec's grid through RunSweep; rows stream to
  // the shared sinks tagged with the bench name, with point indices made
  // globally unique across this bench run.  --seed/--replicas overrides
  // apply here.  Returns the outcomes in point order, collected as they are
  // emitted (bench grids are small).
  std::vector<SweepOutcome> RunGrid(ExperimentSpec spec);

  // Same, for hand-built points (the engine's point-level API).  A --seed
  // override rewrites every point's seed; --replicas does not apply.
  std::vector<SweepOutcome> RunPoints(std::vector<ExperimentPoint> points);

  // Exports one hand-measured row (prefixed with a `point` index when the
  // bench did not set one) to the schema-free sinks.  For measurements the
  // trace-driven simulator cannot express.
  void Emit(ResultRow row);

  // Rows exported so far (grid outcomes + emitted rows).
  std::size_t rows_emitted() const { return next_index_; }
  // Grid points that failed and were exported as `_error` rows.
  std::size_t failed_points() const { return failed_; }

 private:
  const BenchDef& def_;
  Options options_;
  double scale_ = 1.0;
  std::uint64_t param_ = 0;
  std::size_t next_index_ = 0;
  std::size_t failed_ = 0;
};

// Registers a bench; the name must be unique and non-empty, and `run` must
// be set (MOBISIM_CHECK-enforced).  Returns true so registration can run
// from a static initializer.
bool RegisterBench(BenchDef def);

// All registered benches, sorted by name; stable across link order.
std::vector<const BenchDef*> AllBenches();

// Lookup by name; null when unknown.
const BenchDef* FindBench(const std::string& name);

// Runs one bench end to end: resolves knobs, tags+indexes its export rows,
// and turns an exception escaping run() into an `_error` row instead of
// aborting a multi-bench invocation.  Returns the number of failed points
// (0 = clean run).
std::size_t RunBench(const BenchDef& def, const BenchContext::Options& options);

// Registers a bench from a static initializer:
//   REGISTER_BENCH(fig2)({.name = "fig2", ..., .run = Run});
// expands to a uniquely named registration constant.
#define REGISTER_BENCH_CONCAT_INNER(a, b) a##b
#define REGISTER_BENCH_CONCAT(a, b) REGISTER_BENCH_CONCAT_INNER(a, b)
#define REGISTER_BENCH(tag)                                              \
  [[maybe_unused]] static const bool REGISTER_BENCH_CONCAT(              \
      mobisim_registered_bench_, tag) = ::mobisim::RegisterBench

}  // namespace mobisim

#endif  // MOBISIM_SRC_RUNNER_BENCH_REGISTRY_H_
