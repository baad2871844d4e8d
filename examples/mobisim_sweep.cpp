// Parallel experiment-sweep driver: describe a grid over devices, workloads,
// flash utilization, DRAM/SRAM sizes, cleaning policies and seeds, fan it
// out across cores, and export one structured row per point.
//
//   mobisim_sweep [--spec FILE] [key=value ...] [--list] [--shard K/N]
//                 [common flags: --jobs/--serial --seed --replicas
//                  --jsonl --csv --db/--name/--sha --quiet]
//
// key=value tokens use the spec syntax of src/runner/experiment_spec.h
// (sweep lists like `workloads=mac,dos` plus every base-config key from
// src/core/config_text.h).  Lists given on the command line override the
// spec file.  Examples:
//
//   # Figure 2 grid, all cores, JSONL to a file:
//   mobisim_sweep workloads=mac,dos,hp device=intel-datasheet
//       'utilizations=0.4,0.5,0.6,0.7,0.8,0.85,0.9,0.95' --jsonl fig2.jsonl
//
//   # 24-point device x workload x utilization grid, CSV to stdout:
//   mobisim_sweep devices=intel-datasheet,sdp5-datasheet workloads=mac,dos
//       'utilizations=0.4,0.5,0.6,0.7,0.8,0.9' --csv -
//
// --shard K/N keeps only points with index % N == K (indices stay global, so
// shards from different machines merge by concatenating their JSONL).
//
// --merge DIR runs no sweep: it merges a directory of shard JSONL outputs
// (or a sweepd spool) into one run — rows in global point-index order,
// exact duplicates collapsed by point fingerprint, clean retry rows
// replacing `_error` rows — and exports it through the usual sinks (JSONL
// to stdout when none are given).  The same code path serves
// `mobisim_sweepd merge`, so the two tools cannot disagree about dedup.
//
// --matrix FILE additionally renders the run as a side-by-side ablation
// matrix (markdown, one table per metric, a column per policy tuple) to
// FILE ("-" for stdout).  Works in both sweep and --merge modes, so a
// policy-grid sweep farmed out over sweepd workers renders the same matrix
// as a serial run.
//
// --list prints the enumerated grid without running it, marking each point
// that shares another point's simulation (same trace, same effective config;
// see SimulationLeaders) and ending with the count of distinct simulations,
// then the registered benches of the canned paper experiments (run those
// with `mobisim_bench`).
//
// --db merges the run into a bench_db result store as
// <DIR>/<sha>/<NAME>.jsonl with a metadata header (spec fingerprint, date,
// host) and one manifest entry; shards stored under one name join by
// point, and a different grid under that name is refused.  JSONL output
// (--jsonl and --db files) starts with the same metadata header line;
// readers recognise it by its leading "_meta" key.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config_text.h"
#include "src/runner/ablation.h"
#include "src/runner/bench_registry.h"
#include "src/runner/cli_options.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "src/sweepd/merge.h"
#include "src/trace/trace_cache.h"
#include "src/util/parse.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace {

using namespace mobisim;

int Usage() {
  std::fprintf(stderr,
               "usage: mobisim_sweep [--spec FILE] [key=value ...] [--list]\n"
               "                     [--shard K/N] [--merge DIR] [--matrix FILE]\n"
               "                     [common flags]\n"
               "%s"
               "sweep keys: devices workloads utilizations dram_sizes sram_sizes\n"
               "            backends ftl cleaning_policies power_loss_intervals\n"
               "            seeds scale replicas  (comma lists)\n"
               "plus any base-config key from src/core/config_text.h\n",
               CommonFlagsUsage());
  return 2;
}

// Writes the rendered ablation matrix to `path` ("-" for stdout).  Returns
// false (with stderr diagnostics) when the file cannot be written — a sweep
// whose requested matrix is lost should not exit 0.
bool WriteMatrix(const std::string& path, const std::vector<ResultRow>& rows,
                 bool quiet) {
  const std::string matrix = RenderAblationMatrix(rows);
  if (path == "-") {
    std::fwrite(matrix.data(), 1, matrix.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot open matrix file %s\n", path.c_str());
    return false;
  }
  out << matrix;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: failed writing matrix file %s\n", path.c_str());
    return false;
  }
  if (!quiet) {
    std::fprintf(stderr, "mobisim_sweep: wrote ablation matrix to %s\n",
                 path.c_str());
  }
  return true;
}

int RunMain(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions common;
  std::string error;
  if (!ExtractCommonFlags(&args, &common, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }

  ExperimentSpec spec;
  std::size_t shard = 0;
  std::size_t shards = 1;
  bool list_only = false;
  std::string merge_dir;
  std::string matrix_path;

  std::vector<std::string> assignments;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--spec") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      std::ifstream in(args[++i]);
      if (!in) {
        std::fprintf(stderr, "cannot open spec %s\n", args[i].c_str());
        return 1;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      const auto parsed = ParseExperimentSpec(buffer.str(), &error);
      if (!parsed) {
        // The parser reports line and key; add the file so multi-spec
        // invocations point at the right one.
        std::fprintf(stderr, "spec error in %s: %s\n", args[i].c_str(), error.c_str());
        return 1;
      }
      spec = *parsed;
    } else if (args[i] == "--shard") {
      // Strict K/N validation with a named error: a typo'd shard must never
      // silently run the wrong (or an empty) slice of the grid.
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: --shard requires a K/N argument\n");
        return Usage();
      }
      if (!ParseShardSpec(args[++i], &shard, &shards, &error)) {
        std::fprintf(stderr, "error: --shard: %s\n", error.c_str());
        return Usage();
      }
    } else if (args[i] == "--merge") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: --merge requires a directory argument\n");
        return Usage();
      }
      merge_dir = args[++i];
    } else if (args[i] == "--matrix") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: --matrix requires a file argument\n");
        return Usage();
      }
      matrix_path = args[++i];
    } else if (args[i] == "--list") {
      list_only = true;
    } else if (args[i].find('=') != std::string::npos) {
      assignments.push_back(args[i]);
    } else {
      std::fprintf(stderr, "error: unrecognised argument '%s'\n", args[i].c_str());
      return Usage();
    }
  }
  if (!merge_dir.empty()) {
    // Merge mode runs no sweep: collect shard outputs, dedup, export.
    if (!assignments.empty() || shards > 1 || list_only) {
      std::fprintf(stderr, "error: --merge takes no spec, shard, or list flags\n");
      return Usage();
    }
    const auto merged = MergeShardDir(merge_dir, &error);
    if (!merged) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (!matrix_path.empty() &&
        !WriteMatrix(matrix_path, merged->rows, common.quiet)) {
      return 1;
    }
    return ExportMergedRun(*merged, common,
                           common.db_name.empty() ? "sweep" : common.db_name, "",
                           "mobisim_sweep");
  }

  for (const std::string& token : assignments) {
    const std::size_t eq = token.find('=');
    if (!ApplySpecAssignment(&spec, token.substr(0, eq), token.substr(eq + 1), &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  if (!CheckGridAxes(spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // Common-surface overrides land in the spec itself so the fingerprint and
  // the enumerated points both reflect them.
  if (common.seed) {
    spec.seeds = {*common.seed};
  }
  if (common.replicas) {
    spec.replicas = *common.replicas;
  }

  // Keep global indices: shards from different machines merge by
  // concatenation and still join by point index.
  std::vector<ExperimentPoint> points = FilterShard(EnumerateGrid(spec), shard, shards);
  if (!common.quiet) {
    std::fprintf(stderr, "mobisim_sweep: %s\n", DescribeSpec(spec).c_str());
    if (shards > 1) {
      std::fprintf(stderr, "mobisim_sweep: shard %zu/%zu -> %zu points\n", shard,
                   shards, points.size());
    }
  }
  const std::vector<std::size_t> leaders = SimulationLeaders(points);
  std::size_t simulations = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    simulations += leaders[i] == i ? 1 : 0;
  }
  if (list_only) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ExperimentPoint& point = points[i];
      std::string shared;
      if (leaders[i] != i) {
        shared = "  (same simulation as point " + std::to_string(points[leaders[i]].index) + ")";
      }
      std::printf("%4zu  %-5s seed=%llu  %s%s\n", point.index, point.workload.c_str(),
                  static_cast<unsigned long long>(point.seed),
                  DescribeConfig(point.config).c_str(), shared.c_str());
    }
    std::printf("\n%zu points, %zu distinct simulations\n", points.size(), simulations);
    std::printf("\nregistered benches (run with `mobisim_bench run <name>`):\n");
    for (const BenchDef* def : AllBenches()) {
      std::printf("  %-24s %s\n", def->name.c_str(), def->description.c_str());
    }
    return 0;
  }

  RunMeta meta;
  meta.spec_name = common.db_name.empty() ? "sweep" : common.db_name;
  meta.spec_hash = SpecFingerprint(spec);
  meta.git_sha = common.git_sha;
  meta.created = NowUtc();
  meta.host = HostName();
  meta.points = points.size();
  meta.columns = ColumnGroupsOf(spec);

  SinkSet sinks;
  const std::string csv_header = SweepCsvHeader(meta.columns);
  if (!sinks.Open(common, meta, csv_header, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // With no explicit sink, CSV goes to stdout so the tool is useful bare
  // (unless --db already captures the run).
  if (sinks.sinks().empty()) {
    sinks.AddStdoutCsv(csv_header);
  }

  const std::unique_ptr<TraceCache> trace_cache = OpenTraceCache(common);

  // Only the result store (inside SinkSet) and the matrix keep rows once
  // they have left.
  VectorResultSink collected;
  SweepOptions options;
  options.threads = common.jobs;
  options.sinks = sinks.sinks();
  if (!matrix_path.empty()) {
    options.sinks.push_back(&collected);
  }
  options.trace_cache = trace_cache.get();
  if (!common.quiet) {
    options.progress = &std::cerr;
  }

  // Compact human summary: one line per point on stdout would fight the CSV
  // default, so summarize only when not writing there.
  const bool summarize = !common.quiet && common.csv_path != "-" && common.jsonl_path != "-" &&
                         !(common.csv_path.empty() && common.jsonl_path.empty());
  TablePrinter table({"Point", "Workload", "Device", "Util (%)", "Energy (J)",
                      "Write Mean (ms)", "Erases"});
  // Failed points were exported as `_error` rows; surface them after the
  // sweep, and make the exit status reflect that the sweep is incomplete.
  std::vector<std::pair<std::size_t, std::string>> failures;
  options.on_emit = [&](const SweepOutcome& outcome) {
    if (outcome.failed) {
      failures.emplace_back(outcome.point.index, outcome.error);
    } else if (summarize) {
      table.BeginRow()
          .Cell(static_cast<std::int64_t>(outcome.point.index))
          .Cell(outcome.point.workload)
          .Cell(outcome.point.config.device.name)
          .Cell(outcome.point.config.flash_utilization * 100.0, 0)
          .Cell(outcome.result.total_energy_j(), 1)
          .Cell(outcome.result.write_response_ms.mean(), 2)
          .Cell(static_cast<std::int64_t>(outcome.result.counters.segment_erases));
    }
  };

  RunSweep(points, options);
  if (!sinks.Finish("mobisim_sweep")) {
    return 1;
  }
  if (!matrix_path.empty() && !WriteMatrix(matrix_path, collected.rows(), common.quiet)) {
    return 1;
  }
  if (trace_cache != nullptr && !common.quiet) {
    std::fprintf(stderr, "mobisim_sweep: %s\n", trace_cache->StatsLine().c_str());
  }
  for (const auto& [index, failure] : failures) {
    std::fprintf(stderr, "mobisim_sweep: point %zu failed: %s\n", index, failure.c_str());
  }

  if (summarize) {
    table.Print(std::cout);
  }
  if (!common.quiet) {
    std::fprintf(stderr, "mobisim_sweep: %zu points, %zu simulations done (%zu threads)%s\n",
                 points.size(), simulations,
                 options.threads == 0 ? ThreadPool::DefaultThreadCount() : options.threads,
                 failures.empty() ? "" : ", with failures");
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobisim_sweep: fatal: %s\n", e.what());
    return 1;
  }
}
