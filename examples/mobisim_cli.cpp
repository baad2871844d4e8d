// Full command-line driver: run any simulator configuration against any
// workload (generated or loaded from a trace file) and print the results.
//
//   mobisim_cli [--config FILE] [key=value ...] [--workload NAME|--trace FILE]
//               [--scale S] [common flags]
//
// key=value settings are the ones documented in src/core/config_text.h, e.g.
//   mobisim_cli device=intel-datasheet utilization=0.95 --workload mac
//   mobisim_cli device=cu140-datasheet sram=32k spin_down=2 --workload hp
//   mobisim_cli --config experiment.cfg --trace /tmp/mytrace.trc
//
// The common flags (src/runner/cli_options.h) add structured export on top
// of the human-readable table: --jsonl FILE|- and --csv FILE|- write the
// run as sweep-schema rows, --seed N picks the workload-generator seed,
// and --replicas N exports N independently seeded re-runs (the table shows
// the first); --db/--name/--sha merge the rows into a bench_db store.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/config_text.h"
#include "src/core/simulator.h"
#include "src/runner/cli_options.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/trace/external_formats.h"
#include "src/trace/trace_cache.h"
#include "src/trace/trace_io.h"
#include "src/util/parse.h"
#include "src/util/table.h"

namespace {

using namespace mobisim;

int Usage() {
  std::fprintf(stderr,
               "usage: mobisim_cli [--config FILE] [key=value ...]\n"
               "                   [--workload mac|dos|hp|synth | --trace FILE\n"
               "                    | --hpl-trace FILE | --disksim-trace FILE]\n"
               "                   [--scale S] [common flags]\n"
               "%s",
               CommonFlagsUsage());
  return 2;
}

int RunMain(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions common;
  std::string error;
  if (!ExtractCommonFlags(&args, &common, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }

  SimConfig config = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
  std::string workload = "mac";
  std::string trace_path;
  std::string hpl_path;
  std::string disksim_path;
  double scale = 1.0;
  const std::uint64_t seed = common.seed.value_or(1);  // generator's default

  // First: --config files (applied in order), then key=value overrides.
  std::vector<std::string> remaining;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--config") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      std::ifstream in(args[++i]);
      if (!in) {
        std::fprintf(stderr, "cannot open config %s\n", args[i].c_str());
        return 1;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      const auto parsed = ParseConfigText(buffer.str(), &error);
      if (!parsed) {
        std::fprintf(stderr, "config error: %s\n", error.c_str());
        return 1;
      }
      config = *parsed;
    } else if (args[i] == "--workload") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      workload = args[++i];
    } else if (args[i] == "--trace") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      trace_path = args[++i];
    } else if (args[i] == "--hpl-trace") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      hpl_path = args[++i];
    } else if (args[i] == "--disksim-trace") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      disksim_path = args[++i];
    } else if (args[i] == "--scale") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      const auto parsed = ParseFiniteDouble(args[++i]);
      if (!parsed || *parsed <= 0.0) {
        std::fprintf(stderr, "error: --scale wants a positive number, got '%s'\n",
                     args[i].c_str());
        return Usage();
      }
      scale = *parsed;
    } else {
      remaining.push_back(args[i]);
    }
  }
  const std::vector<std::string> unknown = ApplyConfigArgs(&config, remaining, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& token : unknown) {
    std::fprintf(stderr, "error: unrecognised argument '%s'\n", token.c_str());
    return Usage();
  }

  const bool generated = hpl_path.empty() && disksim_path.empty() && trace_path.empty();
  const std::unique_ptr<TraceCache> tcache = OpenTraceCache(common);
  const std::size_t replicas = common.replicas.value_or(1);
  if (replicas > 1 && !generated) {
    std::fprintf(stderr,
                 "error: --replicas needs a generated workload (file traces are fixed)\n");
    return Usage();
  }

  // Build the block-level workload.
  TraceView blocks;
  const std::string import_path = hpl_path.empty() ? disksim_path : hpl_path;
  if (!import_path.empty()) {
    std::ifstream in(import_path);
    if (!in) {
      std::fprintf(stderr, "cannot open trace %s\n", import_path.c_str());
      return 1;
    }
    auto imported = hpl_path.empty() ? ImportDiskSimTrace(in, DiskSimImportOptions{}, &error)
                                     : ImportHplTrace(in, HplImportOptions{}, &error);
    if (!imported) {
      std::fprintf(stderr, "import error: %s\n", error.c_str());
      return 1;
    }
    blocks = std::move(*imported);
    // Disk-level traces carry an implicit buffer cache (like the paper's hp
    // trace); simulate without one.
    config.dram_bytes = 0;
  } else if (!trace_path.empty()) {
    const auto trace = ReadTraceFile(trace_path, &error);
    if (!trace) {
      std::fprintf(stderr, "trace error: %s\n", error.c_str());
      return 1;
    }
    blocks = BlockMapper::Map(*trace);
  } else {
    // `seed` perturbs the generator so repeated runs are reproducible and
    // distinct seeds give independent workload instances.  The trace cache
    // (when configured) shares the generated blocks with sweep/bench runs.
    blocks = LoadOrGenerateTraceView(tcache.get(), workload, scale, seed);
    ApplyWorkloadRules(workload, &config);
  }

  const std::string& source =
      generated ? workload : (import_path.empty() ? trace_path : import_path);
  std::printf("mobisim: %s | workload %s (%zu block records)\n",
              DescribeConfig(config).c_str(), source.c_str(), blocks.size());

  const SimResult result = RunSimulation(blocks, config);

  TablePrinter table({"Metric", "Value"});
  table.BeginRow().Cell(std::string("energy total (J)")).Cell(result.total_energy_j(), 1);
  table.BeginRow().Cell(std::string("  device (J)")).Cell(result.device_energy_j, 1);
  table.BeginRow().Cell(std::string("  DRAM (J)")).Cell(result.dram_energy_j, 1);
  table.BeginRow().Cell(std::string("  SRAM (J)")).Cell(result.sram_energy_j, 1);
  table.BeginRow().Cell(std::string("read mean (ms)")).Cell(result.read_response_ms.mean(), 3);
  table.BeginRow().Cell(std::string("read p95 (ms)"))
      .Cell(result.read_percentiles_ms.Quantile(0.95), 3);
  table.BeginRow().Cell(std::string("read max (ms)")).Cell(result.read_response_ms.max(), 1);
  table.BeginRow().Cell(std::string("write mean (ms)"))
      .Cell(result.write_response_ms.mean(), 3);
  table.BeginRow().Cell(std::string("write p95 (ms)"))
      .Cell(result.write_percentiles_ms.Quantile(0.95), 3);
  table.BeginRow().Cell(std::string("write max (ms)")).Cell(result.write_response_ms.max(), 1);
  table.BeginRow().Cell(std::string("disk spin-ups"))
      .Cell(static_cast<std::int64_t>(result.counters.spinups));
  table.BeginRow().Cell(std::string("segment erases"))
      .Cell(static_cast<std::int64_t>(result.counters.segment_erases));
  table.BeginRow().Cell(std::string("blocks copied (cleaning)"))
      .Cell(static_cast<std::int64_t>(result.counters.blocks_copied));
  table.BeginRow().Cell(std::string("max segment erases")).Cell(result.max_segment_erases, 0);
  table.BeginRow().Cell(std::string("DRAM hit rate"))
      .Cell(result.dram_hits + result.dram_misses == 0
                ? 0.0
                : static_cast<double>(result.dram_hits) /
                      static_cast<double>(result.dram_hits + result.dram_misses),
            3);
  for (const auto& [mode, seconds] : result.device_mode_seconds) {
    table.BeginRow().Cell("device " + mode + " (s)").Cell(seconds, 1);
  }
  table.Print(std::cout);
  std::printf("device energy: %s\n", result.device_energy_breakdown.c_str());

  if (!common.wants_export()) {
    if (tcache != nullptr && !common.quiet) {
      std::fprintf(stderr, "mobisim_cli: %s\n", tcache->StatsLine().c_str());
    }
    return 0;
  }

  // Structured export: the run as sweep-schema rows, one per replica
  // (replica 0 is the run the table above shows).
  RunMeta meta;
  meta.spec_name = common.db_name.empty() ? "cli" : common.db_name;
  meta.spec_hash = DescribeConfig(config);
  meta.git_sha = common.git_sha;
  meta.created = NowUtc();
  meta.host = HostName();
  meta.points = replicas;

  SinkSet sinks;
  if (!sinks.Open(common, meta, SweepCsvHeader(ColumnGroupsOf(config)), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  for (std::size_t replica = 0; replica < replicas; ++replica) {
    ExperimentPoint point;
    point.index = replica;
    point.workload = source;
    point.scale = scale;
    point.seed = ReplicaSeed(seed, replica);
    point.replica = replica;
    point.config = config;
    SimResult replica_result;
    if (replica == 0) {
      replica_result = result;  // reuse the run the table reported
    } else {
      replica_result = RunSimulation(
          LoadOrGenerateTraceView(tcache.get(), workload, scale, point.seed), config);
    }
    const ResultRow row = MergePointAndResult(point, replica_result);
    for (ResultSink* sink : sinks.sinks()) {
      sink->Write(row);
    }
  }
  if (!sinks.Finish("mobisim_cli")) {
    return 1;
  }
  if (tcache != nullptr && !common.quiet) {
    std::fprintf(stderr, "mobisim_cli: %s\n", tcache->StatsLine().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobisim_cli: fatal: %s\n", e.what());
    return 1;
  }
}
