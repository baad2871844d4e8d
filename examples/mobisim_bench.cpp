// The paper's bench suite behind one binary.
//
//   mobisim_bench list
//   mobisim_bench run <name>... [options]
//   mobisim_bench run --all [--smoke] [options]
//
// Every figure, table, ablation and related-system study from the
// historical bench/ binaries is a registered BenchDef (see
// src/runner/bench_registry.h); this driver resolves names, wires the
// shared export sinks, and routes each bench through the sweep engine.
// Text output on stdout is byte-identical to the old per-bench binaries;
// the common flags add structured export and parallel execution on top:
//
//   --smoke       scaled-down workloads / counts, for CI and quick checks
//   --scale S     workload scale override (benches that take one)
//   --param N     bench-specific count override (seeds, cycles, ...)
// plus the common export/execution flags shared with mobisim_sweep and
// mobisim_cli (src/runner/cli_options.h): --jobs/--serial, --seed,
// --replicas, --jsonl, --csv, --db/--name/--sha, --quiet.
//
// The trace-cache maintenance surface also lives here:
//
//   mobisim_bench trace-cache stats [--trace-cache DIR]
//   mobisim_bench trace-cache gc [--max-bytes SIZE] [--trace-cache DIR]
//
// With a cache configured (--trace-cache DIR or $MOBISIM_TRACE_CACHE), run
// commands load previously generated block traces instead of regenerating
// them and report `trace-cache: hits=... misses=...` on stderr.
//
// Exit status: 0 on a clean run, 1 when any bench had failed points (the
// failures are also exported as `_error` rows), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/bench_db/bench_db.h"
#include "src/core/config_text.h"
#include "src/runner/bench_registry.h"
#include "src/runner/cli_options.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/trace_cache.h"
#include "src/util/bytes.h"
#include "src/util/parse.h"

namespace {

using namespace mobisim;

int Usage() {
  std::fprintf(stderr,
               "usage: mobisim_bench list\n"
               "       mobisim_bench run <name>... [options]\n"
               "       mobisim_bench run --all [options]\n"
               "       mobisim_bench trace-cache stats|gc [--max-bytes SIZE]\n"
               "options:\n"
               "  --smoke          scaled-down run for CI / quick checks\n"
               "  --scale S        workload scale override\n"
               "  --param N        bench-specific count override\n"
               "%s"
               "`mobisim_bench list` names every bench.\n",
               CommonFlagsUsage());
  return 2;
}

int ListBenches() {
  const std::vector<const BenchDef*> benches = AllBenches();
  std::printf("%-24s %-13s %s\n", "NAME", "SOURCE", "DESCRIPTION");
  for (const BenchDef* def : benches) {
    std::printf("%-24s %-13s %s\n", def->name.c_str(), def->source.c_str(),
                def->description.c_str());
    std::printf("%-24s %-13s   dims: %s\n", "", "", def->dims.c_str());
    if (def->default_param != 0) {
      std::printf("%-24s %-13s   --param: %s (default %llu, smoke %llu)\n", "", "",
                  def->param_help.c_str(),
                  static_cast<unsigned long long>(def->default_param),
                  static_cast<unsigned long long>(def->smoke_param));
    }
  }
  std::printf("\n%zu benches.  Run one with `mobisim_bench run <name>`.\n",
              benches.size());
  return 0;
}

int RunCommand(std::vector<std::string> args) {
  CliOptions common;
  std::string error;
  if (!ExtractCommonFlags(&args, &common, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }

  bool all = false;
  bool smoke = false;
  double scale = 0.0;
  std::uint64_t param = 0;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--all") {
      all = true;
    } else if (args[i] == "--smoke") {
      smoke = true;
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
    } else if (args[i] == "--param") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      const auto parsed = ParseUint64(args[++i]);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "error: --param wants a positive count, got '%s'\n",
                     args[i].c_str());
        return Usage();
      }
      param = *parsed;
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::fprintf(stderr, "error: unrecognised flag '%s'\n", args[i].c_str());
      return Usage();
    } else {
      names.push_back(args[i]);
    }
  }
  if (all == !names.empty()) {  // exactly one of --all / explicit names
    std::fprintf(stderr, all ? "error: --all takes no bench names\n"
                             : "error: no benches named (or use --all)\n");
    return Usage();
  }

  std::vector<const BenchDef*> benches;
  if (all) {
    benches = AllBenches();
  } else {
    for (const std::string& name : names) {
      const BenchDef* def = FindBench(name);
      if (def == nullptr) {
        std::fprintf(stderr,
                     "error: unknown bench '%s' (see `mobisim_bench list`)\n",
                     name.c_str());
        return 2;
      }
      benches.push_back(def);
    }
  }

  RunMeta meta;
  meta.spec_name = common.db_name.empty() ? "bench" : common.db_name;
  // Fingerprint the run by what it executed: the bench list plus the knobs
  // that change results.  Lets benchdiff refuse to compare unlike runs.
  meta.spec_hash = "bench:";
  for (const BenchDef* def : benches) {
    meta.spec_hash += def->name + ",";
  }
  if (smoke) {
    meta.spec_hash += "smoke";
  }
  meta.git_sha = common.git_sha;
  meta.created = NowUtc();
  meta.host = HostName();

  SinkSet sinks;
  if (!sinks.Open(common, meta, "bench," + SweepCsvHeader(), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  VectorResultSink collected;

  const std::unique_ptr<TraceCache> trace_cache = OpenTraceCache(common);

  BenchContext::Options options;
  options.scale = scale;
  options.param = param;
  options.smoke = smoke;
  options.threads = common.jobs;
  options.seed = common.seed;
  options.replicas = common.replicas;
  options.sinks = sinks.sinks();
  options.trace_cache = trace_cache.get();
  if (!common.db_root.empty()) {
    options.sinks.push_back(&collected);
  }

  std::size_t failed = 0;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const BenchDef* def = benches[i];
    if (!common.quiet) {
      std::fprintf(stderr, "mobisim_bench: [%zu/%zu] %s\n", i + 1, benches.size(),
                   def->name.c_str());
    }
    const std::size_t bench_failed = RunBench(*def, options);
    if (bench_failed > 0) {
      failed += bench_failed;
      std::fprintf(stderr, "mobisim_bench: %s: %zu failed point%s\n",
                   def->name.c_str(), bench_failed, bench_failed == 1 ? "" : "s");
    }
  }
  sinks.Finish();

  if (!common.db_root.empty()) {
    BenchDb db(common.db_root);
    const auto stored = db.StoreRun(meta, collected.rows(), &error);
    if (!stored) {
      std::fprintf(stderr, "error storing run: %s\n", error.c_str());
      return 1;
    }
    if (!common.quiet) {
      std::fprintf(stderr, "mobisim_bench: stored %s\n", stored->c_str());
    }
  }
  if (trace_cache != nullptr && !common.quiet) {
    // The stats line is CI's evidence that a warm cache performed zero
    // trace generations (misses=0 stores=0).
    std::fprintf(stderr, "mobisim_bench: %s\n", trace_cache->StatsLine().c_str());
  }
  if (!common.quiet) {
    std::fprintf(stderr, "mobisim_bench: %zu bench%s done%s\n", benches.size(),
                 benches.size() == 1 ? "" : "es",
                 failed > 0 ? ", with failures" : "");
  }
  return failed > 0 ? 1 : 0;
}

// `trace-cache stats` and `trace-cache gc`: inspect and prune the persistent
// trace cache shared by all three drivers.
int TraceCacheCommand(std::vector<std::string> args) {
  CliOptions common;
  std::string error;
  if (!ExtractCommonFlags(&args, &common, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }

  std::string action;
  std::uint64_t max_bytes = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--max-bytes") {
      if (i + 1 >= args.size()) {
        return Usage();
      }
      const auto size = ParseSize(args[++i]);
      if (!size || *size == 0) {
        std::fprintf(stderr, "error: --max-bytes wants a positive size, got '%s'\n",
                     args[i].c_str());
        return Usage();
      }
      max_bytes = *size;
    } else if (action.empty() && (args[i] == "stats" || args[i] == "gc")) {
      action = args[i];
    } else {
      std::fprintf(stderr, "error: unrecognised argument '%s'\n", args[i].c_str());
      return Usage();
    }
  }
  if (action.empty()) {
    std::fprintf(stderr, "error: trace-cache wants `stats` or `gc`\n");
    return Usage();
  }
  if (common.trace_cache_dir.empty()) {
    std::fprintf(stderr,
                 "error: no cache directory (use --trace-cache DIR or set "
                 "MOBISIM_TRACE_CACHE)\n");
    return 2;
  }

  if (action == "stats") {
    const std::vector<TraceCacheEntry> entries = ListTraceCache(common.trace_cache_dir);
    std::uint64_t bytes = 0;
    std::size_t invalid = 0;
    for (const TraceCacheEntry& entry : entries) {
      bytes += entry.bytes;
      if (!entry.valid) {
        ++invalid;
      }
      std::printf("%s  %10s  %s\n", entry.fingerprint.c_str(),
                  HumanBytes(entry.bytes).c_str(), entry.valid ? "ok" : "INVALID");
    }
    std::printf("trace-cache %s: %zu entries, %s, %zu invalid\n",
                common.trace_cache_dir.c_str(), entries.size(),
                HumanBytes(bytes).c_str(), invalid);
    return 0;
  }

  // CI greps the literal `removed %zu entries` phrase; keep it stable.
  const TraceCacheGcResult gc = GcTraceCache(common.trace_cache_dir, max_bytes);
  std::printf("trace-cache %s: removed %zu entries (%s), kept %zu (%s)\n",
              common.trace_cache_dir.c_str(), gc.removed,
              HumanBytes(gc.removed_bytes).c_str(), gc.kept,
              HumanBytes(gc.kept_bytes).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "list") {
      return args.empty() ? ListBenches() : Usage();
    }
    if (command == "run") {
      return RunCommand(std::move(args));
    }
    if (command == "trace-cache") {
      return TraceCacheCommand(std::move(args));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobisim_bench: fatal: %s\n", e.what());
    return 1;
  }
  return Usage();
}
