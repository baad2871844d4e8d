// Tests for the src/runner sweep engine: grid enumeration, parallel-vs-serial
// result equality, JSONL/CSV round-trips, and thread-pool behaviour under
// exceptions, and sweep memory that does not grow with the grid.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/core/result_io.h"
#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/trace_cache.h"
#include "src/util/thread_pool.h"
#include "tests/collect_sweep.h"

// Sanitizer allocators hold freed memory (quarantine, shadow), so resident
// size says nothing there about what a sweep keeps.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOBISIM_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MOBISIM_SANITIZER_ALLOCATOR 1
#endif
#endif
#ifdef MOBISIM_SANITIZER_ALLOCATOR
constexpr bool kSanitizerAllocator = true;
#else
constexpr bool kSanitizerAllocator = false;
#endif

namespace mobisim {
namespace {

// A small but non-trivial grid: 2 devices x 1 workload x 3 utilizations x
// 2 seeds = 12 points, synth workload at a tiny scale so the suite stays fast.
ExperimentSpec SmallSpec() {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  spec.devices = {IntelCardDatasheet(), Sdp5Datasheet()};
  spec.workloads = {"synth"};
  spec.utilizations = {0.40, 0.80, 0.95};
  spec.seeds = {1, 7};
  spec.scale = 0.02;
  return spec;
}

TEST(ExperimentSpecTest, GridSizeCountsEmptyDimensionsAsOne) {
  ExperimentSpec spec;
  EXPECT_EQ(GridSize(spec), 1u);
  spec.workloads = {"mac", "dos"};
  EXPECT_EQ(GridSize(spec), 2u);
  spec.utilizations = {0.4, 0.6, 0.8};
  EXPECT_EQ(GridSize(spec), 6u);
  spec.seeds = {1, 2, 3, 4};
  EXPECT_EQ(GridSize(spec), 24u);
}

TEST(ExperimentSpecTest, EnumerationOrderNestsSeedFastest) {
  ExperimentSpec spec = SmallSpec();
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 12u);
  ASSERT_EQ(points.size(), GridSize(spec));

  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
  // Seed is the innermost dimension...
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 7u);
  // ...then utilization...
  EXPECT_DOUBLE_EQ(points[0].config.flash_utilization, 0.40);
  EXPECT_DOUBLE_EQ(points[2].config.flash_utilization, 0.80);
  EXPECT_DOUBLE_EQ(points[4].config.flash_utilization, 0.95);
  // ...and device is outermost: first half Intel, second half SDP5.
  EXPECT_EQ(points[0].config.device.name, IntelCardDatasheet().name);
  EXPECT_EQ(points[6].config.device.name, Sdp5Datasheet().name);
  EXPECT_EQ(points[11].config.device.name, Sdp5Datasheet().name);
}

TEST(ExperimentSpecTest, ParsesSweepAndBaseKeys) {
  std::string error;
  const auto spec = ParseExperimentSpec(
      "# sweep spec\n"
      "device = intel-datasheet\n"
      "devices = intel-datasheet, sdp5-datasheet\n"
      "workloads = mac, dos\n"
      "utilizations = 0.4, 0.5, 0.6, 0.7, 0.8, 0.9\n"
      "dram_sizes = 0, 2m\n"
      "seeds = 1, 2, 3\n"
      "scale = 0.25\n"
      "write_back = true\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->devices.size(), 2u);
  EXPECT_EQ(spec->workloads.size(), 2u);
  EXPECT_EQ(spec->utilizations.size(), 6u);
  EXPECT_EQ(spec->dram_sizes.size(), 2u);
  EXPECT_EQ(spec->dram_sizes[1], 2u * 1024 * 1024);
  EXPECT_EQ(spec->seeds.size(), 3u);
  EXPECT_DOUBLE_EQ(spec->scale, 0.25);
  EXPECT_TRUE(spec->base.write_back_cache);
  EXPECT_EQ(GridSize(*spec), 2u * 2 * 6 * 2 * 3);
}

TEST(ExperimentSpecTest, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(ParseExperimentSpec("devices = warp-drive\n", &error).has_value());
  EXPECT_NE(error.find("warp-drive"), std::string::npos);
  EXPECT_FALSE(ParseExperimentSpec("workloads = mac, vax\n", &error).has_value());
  EXPECT_FALSE(ParseExperimentSpec("utilizations = 1.5\n", &error).has_value());
  EXPECT_FALSE(ParseExperimentSpec("seeds = one\n", &error).has_value());
  EXPECT_FALSE(ParseExperimentSpec("scale = -2\n", &error).has_value());
  EXPECT_FALSE(ParseExperimentSpec("no equals sign\n", &error).has_value());
}

TEST(ExperimentSpecTest, RejectsMalformedNumbersWithLineAndKey) {
  std::string error;
  // NaN passes naive `< 0 || >= 1` range checks (both comparisons are
  // false), 1e999 overflows the double parse, and "-1" silently wraps
  // through an unsigned parse to 2^64-1.  All must be clean spec errors.
  EXPECT_FALSE(ParseExperimentSpec("scale = nan\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("scale"), std::string::npos) << error;

  EXPECT_FALSE(ParseExperimentSpec("scale = 1e999\n", &error).has_value());
  EXPECT_FALSE(ParseExperimentSpec("utilizations = nan\n", &error).has_value());
  EXPECT_FALSE(ParseExperimentSpec("power_loss_intervals = inf\n", &error).has_value());

  EXPECT_FALSE(ParseExperimentSpec("seeds = -1\n", &error).has_value());
  EXPECT_NE(error.find("-1"), std::string::npos) << error;
  EXPECT_FALSE(ParseExperimentSpec("seeds = abc\n", &error).has_value());
  EXPECT_FALSE(ParseExperimentSpec("replicas = 1x\n", &error).has_value());

  // Errors report the offending line in multi-line specs.
  EXPECT_FALSE(
      ParseExperimentSpec("workloads = mac\nseeds = 1, -1\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// An empty item would silently shorten a sweep list, and an empty list would
// silently fall back to the base config; both fail naming the key, in a spec
// file and in mobisim_sweep's key=value overrides alike.
TEST(ExperimentSpecTest, RejectsEmptyListItemsNamingTheKey) {
  std::string error;
  for (const auto& [text, key] : std::vector<std::pair<std::string, std::string>>{
           {"seeds = 1,,2\n", "seeds"},
           {"seeds = 1, 2,\n", "seeds"},
           {"seeds =\n", "seeds"},
           {"devices =\n", "devices"},
           {"workloads = \n", "workloads"},
           {"ftl =\n", "ftl"},
           {"utilizations = , 0.5\n", "utilizations"},
       }) {
    SCOPED_TRACE(text);
    error.clear();
    EXPECT_FALSE(ParseExperimentSpec(text, &error).has_value());
    EXPECT_NE(error.find("empty item in " + key + " list"), std::string::npos) << error;
  }
  ExperimentSpec spec;
  EXPECT_FALSE(ApplySpecAssignment(&spec, "seeds", "1,,2", &error));
  EXPECT_NE(error.find("seeds"), std::string::npos) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "seeds", " 1 , 2 ", &error)) << error;
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2}));
}

// An explicit ftl list over a grid of disks only would enumerate points
// that all share one simulation; the parser and the sweep's overrides reject
// it, naming the axis.  A grid with one log-structured flash device keeps it.
// Likewise a utilizations list when every device is a magnetic disk, and a
// backends list when no device is one.
TEST(ExperimentSpecTest, RejectsAnFtlAxisNoDeviceReads) {
  std::string error;
  for (const auto& [text, axis] : std::vector<std::pair<std::string, std::string>>{
           {"devices = cu140-datasheet\nftl = greedy, page-diff\n", "ftl axis"},
           {"devices = cu140-datasheet, sdp5-datasheet, kh-datasheet\nftl = greedy\n",
            "ftl axis"},
           {"ftl = fat-remap\ndevices = sdp10-datasheet\n", "ftl axis"},
           {"device = cu140-datasheet\nftl = greedy, page-diff\n", "ftl axis"},
           {"devices = cu140-datasheet\nutilizations = 0.5, 0.9\n", "utilizations axis"},
           {"devices = cu140-datasheet, kh-datasheet\nutilizations = 0.5\n",
            "utilizations axis"},
           {"device = cu140-datasheet\nutilizations = 0.5, 0.9\n", "utilizations axis"},
           {"devices = intel-datasheet\nbackends = geometry, average-cost\n",
            "backends axis"},
           {"devices = sdp5-datasheet, nand-ssd-4ch\nbackends = geometry\n",
            "backends axis"},
           {"backends = average-cost\n", "backends axis"},
       }) {
    SCOPED_TRACE(text);
    error.clear();
    EXPECT_FALSE(ParseExperimentSpec(text, &error).has_value());
    EXPECT_NE(error.find(axis), std::string::npos) << error;
  }

  for (const char* text : {
           "devices = cu140-datasheet\n",
           "ftl = greedy, page-diff\n",
           "devices = nand-ssd-4ch\nftl = page-diff\n",
           "devices = cu140-datasheet, kh-datasheet, sdp5-datasheet, intel-datasheet, "
           "nand-ssd-4ch\nworkloads = mac, dos, hp\nutilizations = 0.5, 0.9\n"
           "ftl = greedy, page-diff, fat-remap\n",
           "devices = cu140-datasheet, sdp5-datasheet\nutilizations = 0.5, 0.9\n",
           "devices = cu140-datasheet, intel-datasheet\nbackends = geometry, average-cost\n",
           "device = cu140-datasheet\nbackends = geometry\n",
           "utilizations = 0.5, 0.9\n",
       }) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(ParseExperimentSpec(text, &error).has_value()) << error;
  }
  for (const auto& entry : std::filesystem::directory_iterator(MOBISIM_SPEC_DIR)) {
    if (entry.path().extension() != ".spec") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(ParseExperimentSpec(text.str(), &error).has_value())
        << entry.path() << ": " << error;
  }

  // An override that leaves only disks fails the same check.
  auto spec = ParseExperimentSpec("devices = intel-datasheet\nftl = greedy, page-diff\n",
                                  &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_TRUE(CheckGridAxes(*spec, &error));
  ASSERT_TRUE(ApplySpecAssignment(&*spec, "devices", "cu140-datasheet", &error)) << error;
  EXPECT_FALSE(CheckGridAxes(*spec, &error));
  EXPECT_NE(error.find("ftl axis"), std::string::npos) << error;
}

// The core guarantee of the engine: fanning a grid across threads changes
// nothing about the numbers.  Counters must match bitwise; floats are
// compared with a tolerance (they are in fact identical too, since each
// point's computation is untouched by scheduling, but the contract only
// promises tolerance).
TEST(SweepRunnerTest, ParallelMatchesSerial) {
  const ExperimentSpec spec = SmallSpec();

  SweepOptions serial;
  serial.threads = 1;
  const std::vector<SweepOutcome> serial_outcomes = CollectSweep(EnumerateGrid(spec), serial);

  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<SweepOutcome> parallel_outcomes =
      CollectSweep(EnumerateGrid(spec), parallel);

  ASSERT_EQ(serial_outcomes.size(), parallel_outcomes.size());
  for (std::size_t i = 0; i < serial_outcomes.size(); ++i) {
    const SimResult& s = serial_outcomes[i].result;
    const SimResult& p = parallel_outcomes[i].result;
    EXPECT_EQ(s.workload, p.workload);
    EXPECT_EQ(s.device, p.device);
    // Bitwise on counters.
    EXPECT_EQ(s.counters.reads, p.counters.reads);
    EXPECT_EQ(s.counters.writes, p.counters.writes);
    EXPECT_EQ(s.counters.bytes_read, p.counters.bytes_read);
    EXPECT_EQ(s.counters.bytes_written, p.counters.bytes_written);
    EXPECT_EQ(s.counters.segment_erases, p.counters.segment_erases);
    EXPECT_EQ(s.counters.blocks_copied, p.counters.blocks_copied);
    EXPECT_EQ(s.counters.write_stalls, p.counters.write_stalls);
    EXPECT_EQ(s.record_count, p.record_count);
    EXPECT_EQ(s.dram_hits, p.dram_hits);
    EXPECT_EQ(s.dram_misses, p.dram_misses);
    // Tolerance on floats.
    EXPECT_NEAR(s.total_energy_j(), p.total_energy_j(), 1e-9);
    EXPECT_NEAR(s.write_response_ms.mean(), p.write_response_ms.mean(), 1e-12);
    EXPECT_NEAR(s.read_response_ms.mean(), p.read_response_ms.mean(), 1e-12);
    EXPECT_NEAR(s.duration_sec, p.duration_sec, 1e-12);
    EXPECT_NEAR(s.max_segment_erases, p.max_segment_erases, 1e-12);
  }
}

TEST(SweepRunnerTest, SinksReceiveRowsInPointOrder) {
  const ExperimentSpec spec = SmallSpec();
  std::ostringstream jsonl_out;
  JsonlResultSink jsonl(jsonl_out);
  SweepOptions options;
  options.threads = 4;
  options.sinks.push_back(&jsonl);
  const std::vector<SweepOutcome> outcomes = CollectSweep(EnumerateGrid(spec), options);

  std::istringstream lines(jsonl_out.str());
  std::string line;
  std::size_t expected_point = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto row = RowFromJson(line, &error);
    ASSERT_TRUE(row.has_value()) << error << " in: " << line;
    EXPECT_EQ(static_cast<std::size_t>(row->Number("point", -1)), expected_point);
    ++expected_point;
  }
  EXPECT_EQ(expected_point, outcomes.size());
}

TEST(SweepRunnerTest, HpRunsWithoutDramLikeRunNamedWorkload) {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
  spec.workloads = {"hp"};
  spec.scale = 0.002;
  SweepOptions options;
  options.threads = 1;
  const auto outcomes = CollectSweep(EnumerateGrid(spec), options);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].point.config.dram_bytes, 0u);
  EXPECT_EQ(outcomes[0].result.dram_hits + outcomes[0].result.dram_misses, 0u);
}

// A grid full of duplicate simulations: the disk reads neither utilization
// nor ftl, the flash disks ignore ftl, the flash card reads both.
ExperimentSpec DuplicateHeavySpec() {
  std::string error;
  const auto spec = ParseExperimentSpec(
      "devices = cu140-datasheet, sdp5-datasheet, sdp5a-datasheet, intel-datasheet\n"
      "workloads = synth\n"
      "utilizations = 0.5, 0.9\n"
      "ftl = greedy, page-diff\n"
      "replicas = 2\n"
      "scale = 0.02\n",
      &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return *spec;
}

std::size_t SimulationCount(const std::vector<ExperimentPoint>& points) {
  const std::vector<std::size_t> leaders = SimulationLeaders(points);
  std::size_t count = 0;
  for (std::size_t i = 0; i < leaders.size(); ++i) {
    count += leaders[i] == i ? 1 : 0;
  }
  return count;
}

// A sweep's JSONL rows, CSV data rows (header dropped), and its outcomes'
// results flattened, one JSON line each.  The sweep releases a kept result's
// percentile samples (the row holds the percentiles), so the results are
// flattened with empty reservoirs and their sample counts appended.
struct Exported {
  std::string jsonl;
  std::string csv;
  std::string results;
};

Exported RunExported(const std::vector<ExperimentPoint>& points, std::size_t threads) {
  std::ostringstream jsonl_out;
  std::ostringstream csv_out;
  JsonlResultSink jsonl(jsonl_out);
  CsvResultSink csv(csv_out);
  SweepOptions options;
  options.threads = threads;
  options.sinks = {&jsonl, &csv};
  std::string results;
  for (const SweepOutcome& outcome : CollectSweep(points, options)) {
    SimResult result = outcome.result;
    EXPECT_EQ(result.read_percentiles_ms.sample_size(), 0u);
    EXPECT_EQ(result.write_percentiles_ms.sample_size(), 0u);
    results += std::to_string(result.read_percentiles_ms.count()) + " " +
               std::to_string(result.write_percentiles_ms.count()) + " ";
    result.read_percentiles_ms = ReservoirSample();
    result.write_percentiles_ms = ReservoirSample();
    results += RowToJson(ResultToRow(result)) + "\n";
  }
  const std::string csv_text = csv_out.str();
  const std::size_t eol = csv_text.find('\n');
  return {jsonl_out.str(), eol == std::string::npos ? "" : csv_text.substr(eol + 1),
          results};
}

// Each point in its own one-point sweep, rows concatenated: what a sweep
// that shares simulations must reproduce byte for byte.
Exported RunEachAlone(const std::vector<ExperimentPoint>& points) {
  Exported all;
  for (const ExperimentPoint& point : points) {
    const Exported one = RunExported({point}, 1);
    all.jsonl += one.jsonl;
    all.csv += one.csv;
    all.results += one.results;
  }
  return all;
}

TEST(SweepRunnerTest, SharedSimulationsMatchOnePointRuns) {
  const std::vector<ExperimentPoint> points = EnumerateGrid(DuplicateHeavySpec());
  ASSERT_EQ(points.size(), 32u);
  // Per replica: cu140 one config, sdp5 and sdp5a one per utilization,
  // intel one per utilization and ftl.
  EXPECT_EQ(SimulationCount(points), 2u * (1 + 2 + 2 + 4));

  const Exported alone = RunEachAlone(points);
  ASSERT_FALSE(alone.csv.empty());
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const Exported shared = RunExported(points, threads);
    EXPECT_EQ(shared.jsonl, alone.jsonl);
    EXPECT_EQ(shared.csv, alone.csv);
    EXPECT_EQ(shared.results, alone.results);
  }
}

TEST(SweepRunnerTest, FailingSharedSimulationFailsEveryMemberWithItsOwnLabels) {
  ExperimentSpec spec = DuplicateHeavySpec();
  DeviceSpec broken = Cu140Datasheet();
  broken.name = "broken-disk";
  broken.read_kbps = 0.0;  // trips ValidateDeviceSpec
  spec.devices = {broken, IntelCardDatasheet()};
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 16u);
  EXPECT_EQ(SimulationCount(points), 2u * (1 + 4));

  const Exported alone = RunEachAlone(points);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::ostringstream jsonl_out;
    JsonlResultSink jsonl(jsonl_out);
    SweepOptions options;
    options.threads = threads;
    options.sinks = {&jsonl};
    const std::vector<SweepOutcome> outcomes = CollectSweep(points, options);
    EXPECT_EQ(jsonl_out.str(), alone.jsonl);
    // on_emit sees every point exactly once, in point order.
    ASSERT_EQ(outcomes.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(outcomes[i].point.index, points[i].index) << i;
      const ResultRow& row = outcomes[i].row;
      const bool broken_point = points[i].config.device.name == "broken-disk";
      EXPECT_EQ(outcomes[i].failed, broken_point) << i;
      EXPECT_EQ(row.Find("_error") != nullptr, broken_point) << i;
      if (broken_point) {
        EXPECT_NE(row.Text("_error").find("read_kbps"), std::string::npos) << i;
      }
      EXPECT_EQ(static_cast<std::size_t>(row.Number("point", -1)), points[i].index);
      EXPECT_EQ(row.Number("utilization"), points[i].config.flash_utilization) << i;
      EXPECT_EQ(row.Text("ftl"), FtlPolicyKindName(points[i].config.ftl_policy)) << i;
    }
  }
}

SimResult MakeResult() {
  SimConfig config = MakePaperConfig(IntelCardDatasheet(), 256 * 1024);
  return RunNamedWorkload("synth", config, 0.02);
}

TEST(ResultIoTest, JsonlRoundTrip) {
  const SimResult result = MakeResult();
  const ResultRow row = ResultToRow(result);
  const std::string json = RowToJson(row);

  std::string error;
  const auto parsed = RowFromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->fields.size(), row.fields.size());
  for (std::size_t i = 0; i < row.fields.size(); ++i) {
    EXPECT_EQ(parsed->fields[i].key, row.fields[i].key);
    EXPECT_EQ(parsed->fields[i].value, row.fields[i].value);
    EXPECT_EQ(parsed->fields[i].quoted, row.fields[i].quoted);
  }
  // Bitwise on counters (integers survive the text round trip exactly)...
  EXPECT_EQ(static_cast<std::uint64_t>(parsed->Number("segment_erases", -1)),
            result.counters.segment_erases);
  EXPECT_EQ(static_cast<std::uint64_t>(parsed->Number("record_count", -1)),
            result.record_count);
  // ...tolerance on floats (%.17g makes doubles round-trip exactly as well).
  EXPECT_NEAR(parsed->Number("total_energy_j"), result.total_energy_j(), 1e-12);
  EXPECT_NEAR(parsed->Number("write_ms_mean"), result.write_response_ms.mean(), 1e-12);
  EXPECT_EQ(parsed->Text("workload"), result.workload);
  EXPECT_EQ(parsed->Text("device"), result.device);
  // Re-serializing reproduces the line byte for byte.
  EXPECT_EQ(RowToJson(*parsed), json);
}

TEST(ResultIoTest, JsonEscapesAndRejectsMalformedInput) {
  ResultRow row;
  row.AddText("name", "quote \" backslash \\ newline \n done");
  const std::string json = RowToJson(row);
  std::string error;
  const auto parsed = RowFromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Text("name"), "quote \" backslash \\ newline \n done");

  EXPECT_FALSE(RowFromJson("", &error).has_value());
  EXPECT_FALSE(RowFromJson("{\"a\":1", &error).has_value());
  EXPECT_FALSE(RowFromJson("{\"a\":{\"nested\":1}}", &error).has_value());
  EXPECT_FALSE(RowFromJson("{\"a\":1} trailing", &error).has_value());
}

TEST(ResultIoTest, CsvQuotesCommasAndQuotes) {
  ResultRow row;
  row.AddText("label", "a,b \"c\"");
  row.AddInt("n", 42);
  const std::string header = RowToCsvHeader(row);
  const std::string line = RowToCsvLine(row);
  EXPECT_EQ(header, "label,n");
  EXPECT_EQ(line, "\"a,b \"\"c\"\"\",42");
}

TEST(ThreadPoolTest, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitRethrowsFirstExceptionAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&completed, i] {
      if (i % 4 == 0) {
        throw std::runtime_error("job failed");
      }
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Non-throwing jobs all ran despite the failures.
  EXPECT_EQ(completed.load(), 12);
  // The pool remains usable: the error was cleared by Wait.
  pool.Submit([&completed] { completed.fetch_add(1); });
  pool.Wait();  // must not throw or hang
  EXPECT_EQ(completed.load(), 13);
}

// A field of /proc/self/status in kB (VmRSS, VmHWM); 0 when unavailable.
std::uint64_t ProcStatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  return 0;
}

// Resets VmHWM to the current resident size; false where the kernel refuses.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// Peak resident size, in kB, of a sweep shaped like the benchmark's
// `replicas` workload (mac and hp on an Intel card and a cu140 disk at 80%
// utilization, every replica a distinct trace, device outermost) on a fresh
// trace cache and 4 threads.  The peak is VmHWM after a reset, or, where the
// reset is refused, the largest VmRSS seen as the rows leave.
std::uint64_t ReplicasSweepPeakKb(std::size_t replicas, const std::string& cache_dir) {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
  spec.devices = {IntelCardDatasheet(), Cu140Datasheet()};
  spec.workloads = {"mac", "hp"};
  spec.utilizations = {0.80};
  spec.replicas = replicas;
  spec.scale = 0.3;
  std::filesystem::remove_all(cache_dir);
  TraceCache cache(cache_dir);
  SweepOptions options;
  options.threads = 4;
  options.trace_cache = &cache;
  std::uint64_t sampled = ProcStatusKb("VmRSS");
  std::size_t emitted = 0;
  options.on_emit = [&sampled, &emitted](const SweepOutcome& outcome) {
    EXPECT_FALSE(outcome.failed) << outcome.error;
    sampled = std::max(sampled, ProcStatusKb("VmRSS"));
    ++emitted;
  };
  const bool reset = ResetPeakRss();
  RunSweep(EnumerateGrid(spec), options);
  EXPECT_EQ(emitted, 4 * replicas);
  const std::uint64_t peak = reset ? std::max(sampled, ProcStatusKb("VmHWM")) : sampled;
  std::filesystem::remove_all(cache_dir);
  return peak;
}

// With a trace cache a sweep holds the traces and outcomes of the points in
// flight, not every trace, percentile sample and row of the grid, so 16x the
// points must not move its peak memory by 20%.  What still grows is the
// input points and the per-simulation bookkeeping, well under 1 kB a point.
// Keeping every trace and every sample, 1,024 points here peaked at 498 MB
// against 42 MB for 64.
TEST(SweepRunnerTest, PeakMemoryDoesNotGrowWithTheGrid) {
  if (kSanitizerAllocator) {
    GTEST_SKIP() << "sanitizer allocators retain freed memory; RSS is not the sweep's";
  }
  if (ProcStatusKb("VmRSS") == 0) {
    GTEST_SKIP() << "no /proc/self/status VmRSS on this system";
  }
  // Per process, so a second runner_test on the host cannot empty this cache.
  const std::string dir = ::testing::TempDir() + "mobisim_bounded_rss_" + std::to_string(getpid());
  const std::uint64_t small = ReplicasSweepPeakKb(16, dir);    // 64 points
  const std::uint64_t large = ReplicasSweepPeakKb(256, dir);   // 1,024 points
  std::cout << "peak RSS: 64 points " << small << " kB, 1024 points " << large << " kB ("
            << static_cast<double>(large) / static_cast<double>(small) << "x)\n";
  EXPECT_LT(static_cast<double>(large), 1.2 * static_cast<double>(small))
      << "64 points: " << small << " kB, 1024 points: " << large << " kB";
  EXPECT_LT(static_cast<double>(small), 1.2 * static_cast<double>(large))
      << "64 points: " << small << " kB, 1024 points: " << large << " kB";
}

TEST(ThreadPoolTest, DestructionDrainsQueueWithoutWait) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count, i] {
        if (i == 10) {
          throw std::runtime_error("boom");  // swallowed by the destructor
        }
        count.fetch_add(1);
      });
    }
    // No Wait(): destructor must finish the queue and join cleanly.
  }
  EXPECT_EQ(count.load(), 49);
}

TEST(ThreadPoolTest, ParallelForCoversRangeSeriallyAndInParallel) {
  std::vector<int> hits(200, 0);
  ParallelFor(nullptr, hits.size(), [&hits](std::size_t i) { hits[i] += 1; });
  ThreadPool pool(4);
  ParallelFor(&pool, hits.size(), [&hits](std::size_t i) { hits[i] += 2; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 3) << "index " << i;
  }
}

}  // namespace
}  // namespace mobisim
