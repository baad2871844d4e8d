// mobisim_perfbench: the repository's benchmark harness.
//
//   mobisim_perfbench --workload paper|grid|replicas --seed N --seconds S
//                     --trace 0|1 --digests FILE --work DIR --out DIR
//                     [--smoke] [--pin]
//
// Each workload is a closed-loop batch run through mobisim's public entry
// points: `paper` calls RunBench for the 25 deterministic registered benches,
// `grid` and `replicas` call RunSweep.  A run sets the workload up several
// times (the median is `setup_s`), then repeats the batch ("a pass") until
// --seconds is used up.  Every pass is cut into the same segments at the
// same points of its output (a row, a bench start); the time of a pass is
// estimated as the sum over segments of the fastest time any pass took for
// that segment, so a busy spell on a shared host slows only the passes it
// overlaps and not the estimate.
//
// Every pass is checked: its outputs (paper: each bench's stdout; sweeps:
// the JSONL and CSV data rows) are hashed and compared with the digests
// pinned in --digests for this seed, or, for a seed with no pinned digest,
// with the run's first pass.  An `_error` row, a failed bench or a digest
// mismatch counts as a failed item.
//
// --trace 1 alternates untraced passes with traced ones and, for the
// sweeps, with a decomposed pass that drives the layer-level calls RunSweep
// makes (LoadOrGenerateTraceView, the StorageSystem constructor,
// RunSimulation, MergePointAndResult) itself, each inside a span.  It
// reports per-layer metrics and writes the spans as Chrome trace-event JSON
// into --out.  --trace 0 reports the end-to-end metrics.
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// --pin instead prints one untraced pass's digests in --digests format.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "perfbench/harness/tracer.h"
#include "src/core/simulator.h"
#include "src/core/storage_system.h"
#include "src/device/device_spec.h"
#include "src/runner/bench_registry.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/calibrated_workload.h"
#include "src/trace/trace_cache.h"
#include "src/util/hash.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mobisim::ExperimentPoint;
using mobisim::ResultRow;
using mobisim::ResultSink;

Tracer g_tracer;

// ---------------------------------------------------------------------------
// Workload definitions.

// The deterministic registered benches, pinned by name.  micro_models and
// throughput are left out: they time themselves, so their output depends
// on the machine.
const char* const kPaperBenches[] = {
    "ablation_cleaning",    "ablation_endurance",    "ablation_metadata",
    "ablation_seek_model",  "ablation_segment_size", "ablation_spindown",
    "ablation_sram_flash",  "ablation_writeback",    "fig1_write_anomaly",
    "fig2_utilization",     "fig3_mffs_degradation", "fig4_dram_flash",
    "fig5_sram",            "related_envy",          "related_flash_cache",
    "related_hybrid",       "related_lfs_ffs",       "sec53_async_cleaning",
    "seed_sensitivity",     "synth_validation",      "table1_microbench",
    "table2_specs",         "table3_traces",         "table4_devices",
    "uflip",
};

// Every device kind, every FTL policy, reads beside writes.  The ftl axis
// crossed with the magnetic disks re-simulates identical configurations on
// purpose, so that a later dedupe change shows.
const char kGridSpec[] =
    "devices = cu140-datasheet, kh-datasheet, sdp5-datasheet, intel-datasheet, "
    "nand-ssd-4ch\n"
    "workloads = mac, dos, hp\n"
    "utilizations = 0.5, 0.9\n"
    "ftl = greedy, page-diff, fat-remap\n";

// The fault-on cell of specs/fault_smoke.spec (power loss, transient
// errors, battery-backed SRAM on and off).  Its rows carry fault columns,
// so it is a sweep of its own with its own CSV schema.
const char kFaultSpec[] =
    "devices = intel-datasheet\n"
    "workloads = synth\n"
    "sram_sizes = 0, 64k\n"
    "power_loss_intervals = 2.0\n"
    "fault.transient_error_rate = 0.001\n"
    "scale = 0.2\n";

const char kReplicasSpec[] =
    "devices = intel-datasheet, cu140-datasheet\n"
    "workloads = mac, hp\n"
    "utilizations = 0.8\n";

// ---------------------------------------------------------------------------
// Small utilities.

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A field of /proc/self/status in kB (VmRSS, VmHWM); 0 when unavailable.
double ProcStatusKb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

// User plus system CPU seconds of the whole process (all threads).
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

// Linear interpolation between closest ranks; q in [0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

// Least-squares slope of y over x.
double Slope(const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) {
    return 0.0;
  }
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : points) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(points.size());
  const double den = n * sxx - sx * sx;
  return den == 0.0 ? 0.0 : (n * sxy - sx * sy) / den;
}

std::size_t WorkerThreads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

// ---------------------------------------------------------------------------
// Simulated counts, summed over a pass's rows.  Deterministic: every pass of
// a run must produce the same ledger.

const char* const kLedgerColumns[] = {
    "record_count", "dram_hits",     "dram_misses", "sram_absorbed",
    "sram_flushes", "dev_reads",     "dev_writes",  "spinups",
    "write_stalls", "segment_erases", "blocks_copied", "clean_jobs",
    "diff_writes",  "diff_merges",   "remap_table_wraps",
};

struct Ledger {
  std::map<std::string, double> sums;
  // Flash-card and NAND points of the calibrated workloads: blocks the
  // cleaner copied and blocks the host wrote, for flash.copy_ratio.
  double flash_copied = 0;
  double flash_host_blocks = 0;

  void Add(const ResultRow& row) {
    for (const char* column : kLedgerColumns) {
      sums[column] += row.Number(column);
    }
  }

  void AddPoint(const ExperimentPoint& point, const ResultRow& row) {
    Add(row);
    const mobisim::DeviceKind kind = point.config.device.kind;
    if (kind != mobisim::DeviceKind::kFlashCard && kind != mobisim::DeviceKind::kNandSsd) {
      return;
    }
    std::uint32_t block = 0;
    if (point.workload == "mac") {
      block = mobisim::MacWorkloadConfig().block_bytes;
    } else if (point.workload == "dos") {
      block = mobisim::DosWorkloadConfig().block_bytes;
    } else if (point.workload == "hp") {
      block = mobisim::HpWorkloadConfig().block_bytes;
    }
    if (block > 0) {
      flash_copied += row.Number("blocks_copied");
      flash_host_blocks += row.Number("dev_bytes_written") / block;
    }
  }

  bool operator==(const Ledger& other) const {
    return sums == other.sums && flash_copied == other.flash_copied &&
           flash_host_blocks == other.flash_host_blocks;
  }
};

// ---------------------------------------------------------------------------
// One execution of a workload's batch.

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  // Wall and CPU clock readings at the pass's start, at each segment
  // boundary and at its end.  Every pass of a run marks the same boundaries.
  std::vector<std::int64_t> mark_ns;
  std::vector<double> mark_cpu_s;
  double records = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> item_ms;  // host time per item (point or bench)
  // Output digests: one entry per bench for paper, one for a whole sweep
  // workload.  Failures are charged per entry: a bench, or all points.
  std::map<std::string, std::string> digests;
  std::map<std::string, std::size_t> items_per_digest;
  Ledger ledger;
  std::map<std::string, double> records_by_kind;
  std::vector<std::pair<double, double>> rss_kb;  // (items done, VmRSS kB)
  mobisim::TraceCacheStats cache_stats;
  // The pass's spans: [first_span, span_end) of the tracer's record.
  std::size_t first_span = 0;
  std::size_t span_end = 0;

  void Mark() {
    mark_cpu_s.push_back(CpuSeconds());
    mark_ns.push_back(NowNs());
  }
};

// Times a call with wall and CPU clocks; fn may mark segment boundaries.
template <typename Fn>
void Timed(Pass* pass, Fn&& fn) {
  pass->Mark();
  fn();
  pass->Mark();
  pass->wall_s = static_cast<double>(pass->mark_ns.back() - pass->mark_ns.front()) / 1e9;
  pass->cpu_s = pass->mark_cpu_s.back() - pass->mark_cpu_s.front();
}

// Forwards to a sink, with each call inside a "runner.emit" span.
class SpannedSink : public ResultSink {
 public:
  explicit SpannedSink(ResultSink& inner) : inner_(inner) {}
  void Write(const ResultRow& row) override {
    Tracer::Scope span(g_tracer, "runner.emit");
    inner_.Write(row);
  }
  void Finish() override {
    Tracer::Scope span(g_tracer, "runner.emit");
    inner_.Finish();
  }
  bool AcceptsErrorRows() const override { return inner_.AcceptsErrorRows(); }
  bool AcceptsDynamicRows() const override { return inner_.AcceptsDynamicRows(); }

 private:
  ResultSink& inner_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs.  Part of setup.
  virtual void Prepare() = 0;
  // Runs the batch once through the public entry point.
  virtual Pass Run() = 0;
  // Whether Decompose is available.
  virtual bool decomposable() const { return false; }
  // Runs the batch through the layer-level calls, one span per call.
  virtual Pass Decompose() { return Pass(); }
};

// ---------------------------------------------------------------------------
// paper: RunBench for each pinned bench, serially, no trace cache, at each
// bench's smoke scale and param.  At default scale a pass takes 10-16 s, too
// few passes for a steady estimate in one run; the smoke scale runs the
// same benches through the same modules in about a tenth of that.  The
// benches pin their own seeds, so paper's inputs are the same for every
// workload seed.  They run in a fixed order: an order that changes with the
// seed moves the time per point, because a bench runs faster or slower after
// some benches than after others.

class PaperWorkload : public Workload {
 public:
  explicit PaperWorkload(fs::path work) : work_(std::move(work)) {}

  void Prepare() override {
    benches_.clear();
    for (const char* name : kPaperBenches) {
      const mobisim::BenchDef* def = mobisim::FindBench(name);
      if (def == nullptr) {
        throw std::runtime_error(std::string("unknown bench ") + name);
      }
      benches_.push_back(def);
    }
    fs::create_directories(work_);
  }

  Pass Run() override {
    Pass pass;
    // Counts rows as the benches emit them, times each row from the one
    // before it (or from its bench's start), and samples RSS when traced.
    // The benches run one thread each, so a row's gap is its point's time.
    // Bench starts and rows are the pass's segment boundaries.
    class LedgerSink : public ResultSink {
     public:
      explicit LedgerSink(Pass& pass) : pass_(pass) {}
      void StartBench() {
        pass_.Mark();
        last_ns_ = pass_.mark_ns.back();
      }
      void Write(const ResultRow& row) override {
        pass_.Mark();
        const std::int64_t now = pass_.mark_ns.back();
        pass_.item_ms.push_back(static_cast<double>(now - last_ns_) / 1e6);
        last_ns_ = now;
        pass_.ledger.Add(row);
        pass_.records += row.Number("record_count");
        if (g_tracer.enabled()) {
          pass_.rss_kb.emplace_back(static_cast<double>(pass_.item_ms.size()),
                                    ProcStatusKb("VmRSS"));
        }
      }

     private:
      Pass& pass_;
      std::int64_t last_ns_ = 0;
    } sink(pass);

    mobisim::BenchContext::Options options;
    options.smoke = true;
    // Serial inside each bench too: with several threads the heap's
    // per-thread arenas make peak RSS vary run to run by a quarter.
    options.threads = 1;
    options.sinks = {&sink};
    std::map<std::string, std::size_t> failed_points;
    Timed(&pass, [&] {
      for (const mobisim::BenchDef* def : benches_) {
        Tracer::Scope span(g_tracer, "runner.bench." + def->name);
        sink.StartBench();
        failed_points[def->name] = CaptureStdout(work_ / (def->name + ".out"), [&] {
          return mobisim::RunBench(*def, options);
        });
      }
    });
    for (const mobisim::BenchDef* def : benches_) {
      pass.digests[def->name] =
          mobisim::HexU64(mobisim::Fnv1a64(ReadFile(work_ / (def->name + ".out"))));
      pass.items_per_digest[def->name] = 1;
      ++pass.attempted;
      if (failed_points[def->name] > 0) {
        ++pass.failed;
      }
    }
    return pass;
  }

 private:
  // Runs fn with file descriptor 1 redirected to `path`.
  static std::size_t CaptureStdout(const fs::path& path,
                                   const std::function<std::size_t()>& fn) {
    std::cout.flush();
    std::fflush(stdout);
    const int saved = dup(1);
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (saved < 0 || fd < 0) {
      throw std::runtime_error("cannot redirect stdout to " + path.string());
    }
    dup2(fd, 1);
    close(fd);
    std::size_t result = 0;
    std::exception_ptr error;
    try {
      result = fn();
    } catch (...) {
      error = std::current_exception();
    }
    std::cout.flush();
    std::fflush(stdout);
    dup2(saved, 1);
    close(saved);
    if (error) {
      std::rethrow_exception(error);
    }
    return result;
  }

  fs::path work_;
  std::vector<const mobisim::BenchDef*> benches_;
};

// ---------------------------------------------------------------------------
// grid and replicas: RunSweep over one or more specs, rows to JSONL + CSV.

class SweepWorkload : public Workload {
 public:
  // `warm_cache`: fill the trace cache in Prepare and reuse it in every
  // pass; otherwise every pass starts from an empty cache directory.
  SweepWorkload(std::vector<std::string> specs, std::size_t threads, bool warm_cache,
                fs::path work)
      : specs_(std::move(specs)),
        threads_(threads),
        warm_cache_(warm_cache),
        work_(std::move(work)),
        cache_dir_(work_ / "trace-cache") {}

  void Prepare() override {
    sweeps_.clear();
    for (const std::string& text : specs_) {
      std::string error;
      const auto spec = mobisim::ParseExperimentSpec(text, &error);
      if (!spec) {
        throw std::runtime_error("bad spec: " + error);
      }
      sweeps_.push_back(mobisim::EnumerateGrid(*spec));
    }
    fs::remove_all(cache_dir_);
    fs::create_directories(work_);
    if (warm_cache_) {
      mobisim::TraceCache cache(cache_dir_.string());
      for (const auto& [workload, scale, seed] : TraceKeys()) {
        mobisim::LoadOrGenerateTraceView(&cache, workload, scale, seed);
      }
    }
  }

  Pass Run() override {
    Pass pass;
    mobisim::TraceCache cache = FreshCache();
    Timed(&pass, [&] {
      for (std::size_t s = 0; s < sweeps_.size(); ++s) {
        Outputs out(work_, s);
        SpannedSink jsonl(out.jsonl_sink);
        SpannedSink csv(out.csv_sink);
        mobisim::SweepOptions options;
        options.threads = threads_;
        options.sinks = {&jsonl, &csv};
        options.trace_cache = &cache;
        // Host time per point.  On a serial sweep it is the gap between
        // consecutive emissions.  With W workers rows leave in point order,
        // so in bursts whose phase changes from pass to pass; a window of 4W
        // emissions holds a few bursts whatever their phase, and each worker
        // finishes 4 points in it.  So the item time is the gap to the
        // emission 4W points earlier, divided by 4, and a segment spans 4W
        // points.
        const std::size_t window = threads_ == 1 ? 1 : 4 * threads_;
        std::deque<std::int64_t> recent;
        options.on_emit = [&](const mobisim::SweepOutcome& outcome) {
          const std::int64_t now = NowNs();
          if (recent.size() == window) {
            pass.item_ms.push_back(static_cast<double>(now - recent.front()) / 1e6 *
                                   static_cast<double>(threads_) /
                                   static_cast<double>(window));
            recent.pop_front();
          }
          recent.push_back(now);
          Account(&pass, outcome.point, outcome.row, outcome.failed);
          if (pass.attempted % window == 0) {
            pass.Mark();
          }
        };
        Tracer::Scope span(g_tracer, "runner.sweep");
        mobisim::RunSweep(sweeps_[s], options);
      }
    });
    Finish(&pass, cache);
    return pass;
  }

  bool decomposable() const override { return true; }

  // Mirrors RunSweep's per-point work through the same public calls.  The
  // rows must come out byte-identical to RunSweep's; the digest check
  // enforces that.  One more StorageSystem is built per point than RunSweep
  // builds, to time construction and Preload apart from the record loop.
  Pass Decompose() override {
    Pass pass;
    mobisim::TraceCache cache = FreshCache();
    std::unique_ptr<mobisim::ThreadPool> pool;
    if (threads_ > 1) {
      pool = std::make_unique<mobisim::ThreadPool>(threads_);
    }
    Timed(&pass, [&] {
      for (std::size_t s = 0; s < sweeps_.size(); ++s) {
        DecomposeSweep(sweeps_[s], s, &cache, pool.get(), &pass);
      }
    });
    Finish(&pass, cache);
    return pass;
  }

 private:
  using TraceKey = std::tuple<std::string, double, std::uint64_t>;

  // A sweep's output files and sinks.
  struct Outputs {
    Outputs(const fs::path& dir, std::size_t index)
        : jsonl(dir / ("sweep" + std::to_string(index) + ".jsonl")),
          csv(dir / ("sweep" + std::to_string(index) + ".csv")),
          jsonl_sink(jsonl),
          csv_sink(csv, mobisim::SweepCsvHeader()) {}
    std::ofstream jsonl;
    std::ofstream csv;
    mobisim::JsonlResultSink jsonl_sink;
    mobisim::CsvResultSink csv_sink;
  };

  std::set<TraceKey> TraceKeys() const {
    std::set<TraceKey> keys;
    for (const auto& points : sweeps_) {
      for (const ExperimentPoint& p : points) {
        keys.insert({p.workload, p.scale, p.seed});
      }
    }
    return keys;
  }

  mobisim::TraceCache FreshCache() const {
    if (!warm_cache_) {
      fs::remove_all(cache_dir_);
    }
    return mobisim::TraceCache(cache_dir_.string());
  }

  static void Account(Pass* pass, const ExperimentPoint& point, const ResultRow& row,
                      bool failed) {
    ++pass->attempted;
    if (failed) {
      ++pass->failed;
    }
    pass->ledger.AddPoint(point, row);
    const double records = row.Number("record_count");
    pass->records += records;
    pass->records_by_kind[mobisim::DeviceKindName(point.config.device.kind)] += records;
    if (g_tracer.enabled()) {
      pass->rss_kb.emplace_back(static_cast<double>(pass->attempted),
                                ProcStatusKb("VmRSS"));
    }
  }

  void Finish(Pass* pass, const mobisim::TraceCache& cache) const {
    std::uint64_t hash = mobisim::kFnv1a64Offset;
    for (std::size_t s = 0; s < sweeps_.size(); ++s) {
      const std::string stem = "sweep" + std::to_string(s);
      hash = mobisim::Fnv1a64(ReadFile(work_ / (stem + ".jsonl")), hash);
      hash = mobisim::Fnv1a64(ReadFile(work_ / (stem + ".csv")), hash);
    }
    pass->digests["rows"] = mobisim::HexU64(hash);
    pass->items_per_digest["rows"] = pass->attempted;
    pass->cache_stats = cache.stats();
  }

  void DecomposeSweep(const std::vector<ExperimentPoint>& points, std::size_t index,
                      mobisim::TraceCache* cache, mobisim::ThreadPool* pool,
                      Pass* pass) const {
    Outputs out(work_, index);
    SpannedSink jsonl(out.jsonl_sink);
    SpannedSink csv(out.csv_sink);
    ResultSink* sinks[] = {&jsonl, &csv};

    std::map<TraceKey, std::pair<mobisim::TraceView, std::string>> traces;
    for (const ExperimentPoint& p : points) {
      traces[{p.workload, p.scale, p.seed}];
    }
    std::vector<std::pair<const TraceKey, std::pair<mobisim::TraceView, std::string>>*>
        entries;
    for (auto& entry : traces) {
      entries.push_back(&entry);
    }
    mobisim::ParallelFor(pool, entries.size(), [&](std::size_t i) {
      const auto& [workload, scale, seed] = entries[i]->first;
      Tracer::Scope span(g_tracer, "trace.acquire", workload);
      try {
        entries[i]->second.first =
            mobisim::LoadOrGenerateTraceView(cache, workload, scale, seed);
      } catch (const std::exception& e) {
        entries[i]->second.second = e.what();
      }
    });

    // Like RunSweep, keep every result until the sweep ends.
    struct Outcome {
      ExperimentPoint point;
      mobisim::SimResult result;
      ResultRow row;
      bool failed = false;
    };
    std::vector<Outcome> outcomes(points.size());
    std::vector<bool> ready(points.size(), false);
    std::size_t next_emit = 0;
    std::mutex emit_mu;
    mobisim::ParallelFor(pool, points.size(), [&](std::size_t i) {
      Outcome& o = outcomes[i];
      o.point = points[i];
      if (o.point.workload == "hp") {
        o.point.config.dram_bytes = 0;  // RunSweep's hp rule: no DRAM cache
      }
      const auto& [view, error] = traces.at({o.point.workload, o.point.scale, o.point.seed});
      const std::string kind = mobisim::DeviceKindName(o.point.config.device.kind);
      std::string what = error;
      if (what.empty()) {
        try {
          {
            Tracer::Scope span(g_tracer, "core.setup", kind);
            mobisim::StorageSystem system(o.point.config, view.total_blocks(),
                                          view.block_bytes());
          }
          {
            Tracer::Scope span(g_tracer, "core.simulate", kind);
            o.result = mobisim::RunSimulation(view, o.point.config);
          }
          Tracer::Scope span(g_tracer, "core.finalize", kind);
          o.row = mobisim::MergePointAndResult(o.point, o.result);
        } catch (const std::exception& e) {
          what = e.what();
        }
      }
      if (!what.empty()) {
        o.failed = true;
        o.result = mobisim::SimResult();
        o.row = mobisim::PointToRow(o.point);
        o.row.AddText("_error", what);
      }
      std::lock_guard<std::mutex> lock(emit_mu);
      ready[i] = true;
      for (; next_emit < points.size() && ready[next_emit]; ++next_emit) {
        const Outcome& e = outcomes[next_emit];
        for (ResultSink* sink : sinks) {
          if (!e.failed || sink->AcceptsErrorRows()) {
            sink->Write(e.row);
          }
        }
        Account(pass, e.point, e.row, e.failed);
      }
    });
    for (ResultSink* sink : sinks) {
      sink->Finish();
    }
  }

  std::vector<std::string> specs_;
  std::size_t threads_;
  bool warm_cache_;
  fs::path work_;
  fs::path cache_dir_;
  std::vector<std::vector<ExperimentPoint>> sweeps_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool smoke, const fs::path& work) {
  const std::string seeds = "seeds = " + std::to_string(seed) + "\n";
  if (name == "paper") {
    return std::make_unique<PaperWorkload>(work);
  }
  if (name == "grid") {
    const std::string size = smoke ? "scale = 0.1\n" : "replicas = 2\nscale = 1.0\n";
    return std::make_unique<SweepWorkload>(
        std::vector<std::string>{kGridSpec + seeds + size, kFaultSpec + seeds}, 1,
        /*warm_cache=*/true, work);
  }
  if (name == "replicas") {
    const std::string size = smoke ? "replicas = 4\nscale = 0.1\n" : "replicas = 64\nscale = 1.0\n";
    return std::make_unique<SweepWorkload>(
        std::vector<std::string>{kReplicasSpec + seeds + size}, WorkerThreads(),
        /*warm_cache=*/false, work);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Pinned digests: lines of `<workload>[-smoke] <seed or bench> <digest>`.

using DigestTable = std::map<std::string, std::string>;

DigestTable LoadDigests(const std::string& path) {
  DigestTable table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string variant, key, digest;
    if (line.empty() || line[0] == '#' || !(fields >> variant >> key >> digest)) {
      continue;
    }
    table[variant + " " + key] = digest;
  }
  return table;
}

// The digests.txt key of one entry of a pass.  Paper benches are pinned per
// bench (their output ignores the seed); sweeps are pinned per seed.
std::string PinnedKey(const std::string& variant, std::uint64_t seed,
                      const std::string& entry) {
  return variant + " " + (entry == "rows" ? std::to_string(seed) : entry);
}

// ---------------------------------------------------------------------------
// Driver.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool pin = false;
  std::string digests;
  std::string work;
  std::string out;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o->smoke = true;
    } else if (arg == "--pin") {
      o->pin = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      o->workload = argv[++i];
    } else if (arg == "--seed") {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--digests") {
      o->digests = argv[++i];
    } else if (arg == "--work") {
      o->work = argv[++i];
    } else if (arg == "--out") {
      o->out = argv[++i];
    } else {
      return false;
    }
  }
  return !o->workload.empty() && !o->digests.empty() && !o->work.empty() &&
         !o->out.empty() && o->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Harness {
 public:
  explicit Harness(const Options& options)
      : o_(options),
        // paper runs at smoke scale either way, so it has no smoke variant.
        variant_(options.workload +
                 (options.smoke && options.workload != "paper" ? "-smoke" : "")),
        work_(fs::path(options.work) / std::to_string(getpid())),
        pinned_(LoadDigests(options.digests)) {}

  ~Harness() {
    std::error_code ignored;
    fs::remove_all(work_, ignored);
  }

  int Main(std::int64_t process_start_ns) {
    if (!MakeWorkload(o_.workload, o_.seed, o_.smoke, work_)) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o_.workload.c_str());
      return 2;
    }
    std::unique_ptr<Workload> workload = Setup(process_start_ns);
    if (o_.pin) {
      return Pin(*workload);
    }
    // Rounds until the next one would end after the deadline (at least one).
    const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(o_.seconds * 1e9);
    std::vector<Pass> untraced, traced, decomposed;
    std::int64_t round_ns = 0;
    do {
      const std::int64_t round_start = NowNs();
      untraced.push_back(RunPass(*workload, Mode::kUntraced));
      if (o_.trace) {
        traced.push_back(RunPass(*workload, Mode::kTraced));
        if (workload->decomposable()) {
          decomposed.push_back(RunPass(*workload, Mode::kDecomposed));
        }
      }
      round_ns = NowNs() - round_start;
    } while (NowNs() + round_ns <= deadline);

    std::vector<Metric> metrics =
        o_.trace ? LayerMetrics(untraced, traced, decomposed) : EndToEndMetrics(untraced);
    return Report(metrics);
  }

 private:
  // Sets the workload up several times; setup_s is the median.  The first
  // set-up is timed from the start of main().  Each set-up builds the inputs and
  // then runs one smoke-sized pass as warm-up, outside every timed pass.
  std::unique_ptr<Workload> Setup(std::int64_t process_start_ns) {
    constexpr int kSetups = 5;
    std::unique_ptr<Workload> workload;
    std::int64_t start = process_start_ns;
    for (int i = 0; i < kSetups; ++i) {
      workload = MakeWorkload(o_.workload, o_.seed, o_.smoke, work_ / "timed");
      workload->Prepare();
      std::unique_ptr<Workload> warm = MakeWorkload(o_.workload, o_.seed, true, work_ / "warm");
      warm->Prepare();
      const Pass pass = warm->Run();
      if (pass.failed > 0) {
        ok_ = false;
        std::fprintf(stderr, "perfbench: warm-up pass failed %zu items\n", pass.failed);
      }
      warm.reset();
      setup_s_.push_back(static_cast<double>(NowNs() - start) / 1e9);
      start = NowNs();
    }
    return workload;
  }

  enum class Mode { kUntraced, kTraced, kDecomposed };

  Pass RunPass(Workload& workload, Mode mode) {
    // Hand freed memory back so every pass starts from a heap like a fresh
    // process's.
    malloc_trim(0);
    g_tracer.Enable(mode != Mode::kUntraced);
    const std::size_t first_span = g_tracer.size();
    Pass pass;
    {
      Tracer::Scope span(g_tracer, "harness.pass",
                         mode == Mode::kUntraced ? "untraced"
                         : mode == Mode::kTraced ? "traced"
                                                 : "decomposed");
      pass = mode == Mode::kDecomposed ? workload.Decompose() : workload.Run();
    }
    pass.first_span = first_span;
    pass.span_end = g_tracer.size();
    g_tracer.Enable(false);
    Check(&pass);
    return pass;
  }

  // Compares the pass's digests with the pinned ones (or, unpinned, with
  // the first pass's) and its ledger with the first pass's.
  void Check(Pass* pass) {
    for (const auto& [entry, digest] : pass->digests) {
      const auto pinned = pinned_.find(PinnedKey(variant_, o_.seed, entry));
      std::string& first = first_digests_[entry];
      if (first.empty()) {
        first = digest;
        if (pinned == pinned_.end()) {
          std::fprintf(stderr,
                       "perfbench: no pinned digest for %s seed %llu; checking "
                       "that passes agree\n",
                       entry.c_str(), static_cast<unsigned long long>(o_.seed));
        }
      }
      const std::string& want = pinned != pinned_.end() ? pinned->second : first;
      if (digest != want) {
        std::fprintf(stderr, "perfbench: digest mismatch for %s: got %s, want %s\n",
                     entry.c_str(), digest.c_str(), want.c_str());
        pass->failed += pass->items_per_digest[entry];
      }
    }
    if (!first_ledger_) {
      first_ledger_ = std::make_unique<Ledger>(pass->ledger);
    } else if (!(pass->ledger == *first_ledger_)) {
      std::fprintf(stderr, "perfbench: simulated counts differ between passes\n");
      ok_ = false;
    }
    attempted_ += pass->attempted;
    failed_ += std::min(pass->failed, pass->attempted);
  }

  int Pin(Workload& workload) {
    const Pass pass = workload.Run();
    if (pass.failed > 0) {
      std::fprintf(stderr, "perfbench: refusing to pin a pass with failures\n");
      return 1;
    }
    for (const auto& [entry, digest] : pass.digests) {
      const std::string key = PinnedKey(variant_, o_.seed, entry);
      std::printf("%s %s\n", key.c_str(), digest.c_str());
    }
    return 0;
  }

  // Pass time is the sum over segments of each segment's fastest time in
  // any pass; item times are each item's fastest time.  On a shared host a
  // busy spell of a few seconds slows whole passes, but rarely the same
  // segment in every pass, so these follow the program rather than the
  // host's load.
  std::vector<Metric> EndToEndMetrics(const std::vector<Pass>& passes) {
    const Pass& first = passes.front();
    std::vector<double> segment_s(first.mark_ns.size() - 1, INFINITY);
    std::vector<double> segment_cpu_s(segment_s.size(), INFINITY);
    std::vector<double> item_ms(first.item_ms.size(), INFINITY);
    std::vector<double> pass_wall;
    for (const Pass& p : passes) {
      if (p.mark_ns.size() != first.mark_ns.size() || p.item_ms.size() != item_ms.size()) {
        std::fprintf(stderr, "perfbench: passes cut into different segments\n");
        ok_ = false;
        continue;
      }
      for (std::size_t k = 0; k < segment_s.size(); ++k) {
        segment_s[k] =
            std::min(segment_s[k], static_cast<double>(p.mark_ns[k + 1] - p.mark_ns[k]) / 1e9);
        segment_cpu_s[k] = std::min(segment_cpu_s[k], p.mark_cpu_s[k + 1] - p.mark_cpu_s[k]);
      }
      for (std::size_t i = 0; i < item_ms.size(); ++i) {
        item_ms[i] = std::min(item_ms[i], p.item_ms[i]);
      }
      pass_wall.push_back(p.wall_s);
    }
    double wall = 0, cpu = 0;
    for (std::size_t k = 0; k < segment_s.size(); ++k) {
      wall += segment_s[k];
      cpu += segment_cpu_s[k];
    }
    notes_ << "passes=" << passes.size() << " segments_per_pass=" << segment_s.size()
           << " item_samples_per_pass=" << item_ms.size() << " setups=" << setup_s_.size()
           << " wall_s per pass:";
    for (const double w : pass_wall) {
      notes_ << " " << w;
    }
    return {
        {"wall_s", wall, "s"},
        {"setup_s", Median(setup_s_), "s"},
        {"cpu_s", cpu, "s"},
        {"peak_rss_mb", ProcStatusKb("VmHWM") / 1024.0, "MB"},
        {"records_per_s", first.records / wall, "1/s"},
        {"point_ms_p50", Percentile(item_ms, 0.50), "ms"},
        {"point_ms_p95", Percentile(item_ms, 0.95), "ms"},
    };
  }

  std::vector<Metric> LayerMetrics(const std::vector<Pass>& untraced,
                                   const std::vector<Pass>& traced,
                                   const std::vector<Pass>& decomposed) {
    const SelfTimes traced_self = MedianSelf(traced);
    const SelfTimes decomposed_self = MedianSelf(decomposed);
    auto med = [](const SelfTimes& self, const std::string& name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };

    std::vector<Metric> metrics;
    const Pass& first = traced.front();
    metrics.push_back({"trace.acquire_s", med(decomposed_self, "trace.acquire"), "s"});
    metrics.push_back({"trace.generated", static_cast<double>(first.cache_stats.misses), "count"});
    metrics.push_back({"trace.cache_views", static_cast<double>(first.cache_stats.views), "count"});
    metrics.push_back({"trace.cache_copies", static_cast<double>(first.cache_stats.copies), "count"});

    const Pass* dec = decomposed.empty() ? nullptr : &decomposed.front();
    for (const std::string suffix : {"", ".magnetic-disk", ".flash-disk", ".flash-card", ".nand-ssd"}) {
      const double setup = med(decomposed_self, "core.setup" + suffix);
      const double loop = med(decomposed_self, "core.simulate" + suffix) - setup;
      double records = 0;
      if (dec != nullptr) {
        if (suffix.empty()) {
          records = dec->records;
        } else {
          const auto it = dec->records_by_kind.find(suffix.substr(1));
          records = it == dec->records_by_kind.end() ? 0 : it->second;
        }
      }
      metrics.push_back({"core.setup_s" + suffix, setup, "s"});
      metrics.push_back({"core.loop_s" + suffix, loop, "s"});
      metrics.push_back({"core.ns_per_record" + suffix, records > 0 ? loop / records * 1e9 : 0.0, "ns/record"});
      metrics.push_back({"core.finalize_s" + suffix, med(decomposed_self, "core.finalize" + suffix), "s"});
    }

    metrics.push_back({"runner.emit_s", med(traced_self, "runner.emit"), "s"});
    metrics.push_back({"runner.rss_kb_per_point", Slope(first.rss_kb), "kB/point"});
    for (const char* bench : kPaperBenches) {
      metrics.push_back({std::string("runner.bench.") + bench + "_s",
                         med(traced_self, std::string("runner.bench.") + bench), "s"});
    }

    const Ledger& l = first.ledger;
    auto sum = [&l](const char* column) {
      const auto it = l.sums.find(column);
      return it == l.sums.end() ? 0.0 : it->second;
    };
    const double dram = sum("dram_hits") + sum("dram_misses");
    metrics.push_back({"cache.dram_hit_ratio", dram > 0 ? sum("dram_hits") / dram : 0.0, "ratio"});
    metrics.push_back({"cache.sram_absorbed", sum("sram_absorbed"), "count"});
    metrics.push_back({"cache.sram_flushes", sum("sram_flushes"), "count"});
    metrics.push_back({"device.reads", sum("dev_reads"), "count"});
    metrics.push_back({"device.writes", sum("dev_writes"), "count"});
    metrics.push_back({"device.spinups", sum("spinups"), "count"});
    metrics.push_back({"device.write_stalls", sum("write_stalls"), "count"});
    metrics.push_back({"flash.segment_erases", sum("segment_erases"), "count"});
    metrics.push_back({"flash.blocks_copied", sum("blocks_copied"), "count"});
    metrics.push_back({"flash.clean_jobs", sum("clean_jobs"), "count"});
    metrics.push_back({"flash.copy_ratio",
                       l.flash_host_blocks > 0 ? l.flash_copied / l.flash_host_blocks : 0.0,
                       "ratio"});
    metrics.push_back({"ftl.diff_writes", sum("diff_writes"), "count"});
    metrics.push_back({"ftl.diff_merges", sum("diff_merges"), "count"});
    metrics.push_back({"ftl.remap_table_wraps", sum("remap_table_wraps"), "count"});

    std::vector<double> untraced_wall, traced_wall;
    for (const Pass& p : untraced) {
      untraced_wall.push_back(p.wall_s);
    }
    for (const Pass& p : traced) {
      traced_wall.push_back(p.wall_s);
    }
    metrics.push_back({"harness.trace_overhead_s", Median(traced_wall) - Median(untraced_wall), "s"});
    notes_ << "untraced_passes=" << untraced.size() << " traced_passes=" << traced.size()
           << " decomposed_passes=" << decomposed.size();
    return metrics;
  }

  using SelfTimes = std::map<std::string, double>;

  // Median over passes of each span name's self seconds in the pass.
  static SelfTimes MedianSelf(const std::vector<Pass>& passes) {
    std::map<std::string, std::vector<double>> per_name;
    for (const Pass& pass : passes) {
      for (const auto& [name, sec] : g_tracer.SelfSeconds(pass.first_span, pass.span_end)) {
        per_name[name].push_back(sec);
      }
    }
    SelfTimes out;
    for (const auto& [name, values] : per_name) {
      out[name] = Median(values);
    }
    return out;
  }

  int Report(const std::vector<Metric>& metrics) {
    const bool correct = ok_ && failed_ == 0;
    const fs::path out_dir(o_.out);
    fs::create_directories(out_dir);
    const std::string stem = o_.workload + (o_.smoke ? "-smoke" : "") + "-seed" +
                             std::to_string(o_.seed) + (o_.trace ? "-trace" : "");
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted_
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
      json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": " << value
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
      std::fprintf(stderr, "  %-40s %16.6f %s\n", metrics[i].name.c_str(), metrics[i].value,
                   metrics[i].unit.c_str());
    }
    json << "}";
    std::fprintf(stderr, "perfbench: %s seed %llu: %s\n", variant_.c_str(),
                 static_cast<unsigned long long>(o_.seed), notes_.str().c_str());
    // The file copy also states the sample counts behind the medians.
    std::ofstream(out_dir / (stem + ".metrics.json"))
        << json.str() << ", \"notes\": \"" << notes_.str() << "\"}\n";
    json << "}";
    if (o_.trace) {
      g_tracer.WriteChromeJson((out_dir / (stem + ".trace-events.json")).string());
    }
    std::printf("%s\n", json.str().c_str());
    return correct ? 0 : 1;
  }

  Options o_;
  std::string variant_;
  fs::path work_;
  DigestTable pinned_;
  std::vector<double> setup_s_;
  std::map<std::string, std::string> first_digests_;
  std::unique_ptr<Ledger> first_ledger_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool ok_ = true;
  std::ostringstream notes_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t start = perfbench::NowNs();
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: mobisim_perfbench --workload paper|grid|replicas --seed N "
                 "--seconds S --trace 0|1 --digests FILE --work DIR --out DIR "
                 "[--smoke] [--pin]\n");
    return 2;
  }
  try {
    perfbench::Harness harness(options);
    return harness.Main(start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
