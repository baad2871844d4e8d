// Tests for the fault-injection and recovery subsystem: SimError-carrying
// checks, the strict no-op contract when faults are disabled, acknowledged-
// write durability under power loss, deterministic (idempotent) recovery,
// cleaning interrupted by power loss, wear-out capacity degradation (under
// both the card and the NAND timing), transient-error retries, and sweep-level
// fault tolerance (failed points become `_error` rows that benchdiff skips).
#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench_db/bench_db.h"
#include "src/bench_db/benchdiff.h"
#include "src/core/config_text.h"
#include "src/core/result_io.h"
#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/device/log_flash_device.h"
#include "src/fault/fault.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "tests/collect_sweep.h"

namespace mobisim {
namespace {

// ---------------------------------------------------------------------------
// MOBISIM_CHECK failures are recoverable exceptions, not process aborts.

TEST(SimErrorTest, CheckFailureThrowsWithContext) {
  bool caught = false;
  try {
    MOBISIM_CHECK(2 + 2 == 5 && "arithmetic still works");
  } catch (const SimError& e) {
    caught = true;
    EXPECT_NE(std::string(e.condition()).find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(std::string(e.file()).find("fault_test"), std::string::npos);
    EXPECT_GT(e.line(), 0);
    const std::string what = e.what();
    EXPECT_NE(what.find("MOBISIM_CHECK failed"), std::string::npos);
    EXPECT_NE(what.find("fault_test"), std::string::npos);
  }
  EXPECT_TRUE(caught);
}

TEST(SimErrorTest, IsARuntimeError) {
  EXPECT_THROW(MOBISIM_CHECK(false), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Strict no-op: with every fault.* knob at its default, nothing fault-related
// reaches the exported rows, so pre-fault baselines stay byte-identical.

TEST(FaultNoOpTest, DefaultConfigDisablesFaults) {
  const FaultConfig config;
  EXPECT_FALSE(config.enabled());
}

TEST(FaultNoOpTest, DefaultRunExportsNoFaultColumns) {
  SimConfig config = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  const SimResult result = RunNamedWorkload("synth", config, 0.05);
  EXPECT_FALSE(result.columns.Has(ColumnGroup::kFault));
  const ResultRow row = ResultToRow(result);
  EXPECT_EQ(row.Find("power_losses"), nullptr);
  EXPECT_EQ(row.Find("lost_acked_writes"), nullptr);
  EXPECT_EQ(row.Find("io_retries"), nullptr);
  EXPECT_EQ(row.Find("usable_capacity_fraction"), nullptr);
  EXPECT_EQ(row.Find("capacity_timeline"), nullptr);
}

TEST(FaultNoOpTest, SweepHeaderHasNoFaultColumns) {
  const std::string header = SweepCsvHeader();
  EXPECT_EQ(header.find("power_loss"), std::string::npos);
  EXPECT_EQ(header.find("fault"), std::string::npos);
}

TEST(FaultNoOpTest, ExportMetricsAddsColumnsWithoutInjectingFaults) {
  SimConfig config = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  config.export_columns = ColumnGroups().With(ColumnGroup::kFault);
  const SimResult result = RunNamedWorkload("synth", config, 0.05);
  EXPECT_TRUE(result.columns.Has(ColumnGroup::kFault));
  EXPECT_EQ(result.power_losses, 0u);
  EXPECT_EQ(result.lost_acked_writes, 0u);
  EXPECT_EQ(result.transient_errors, 0u);
  const ResultRow row = ResultToRow(result);
  EXPECT_NE(row.Find("power_losses"), nullptr);
}

// ---------------------------------------------------------------------------
// Durability property: no write acknowledged past the battery-backed SRAM
// buffer is ever lost, for any power-loss schedule on any device kind.
// Without the buffer, writes in flight at the failure instant are lost.

TEST(PowerLossTest, SramBufferPreventsAllAckedWriteLoss) {
  for (const DeviceSpec& device :
       {Cu140Datasheet(), IntelCardDatasheet(), Sdp10Datasheet()}) {
    for (const double interval_sec : {0.5, 5.0}) {
      SimConfig config = MakePaperConfig(device, 512 * 1024);
      config.sram_bytes = 64 * 1024;
      config.fault.power_loss_interval_us = UsFromSec(interval_sec);
      const SimResult result = RunNamedWorkload("synth", config, 0.2);
      EXPECT_GT(result.power_losses, 0u)
          << device.name << " interval " << interval_sec;
      EXPECT_EQ(result.lost_acked_writes, 0u)
          << device.name << " interval " << interval_sec;
    }
  }
}

TEST(PowerLossTest, WithoutSramAckedWritesAreLost) {
  for (const DeviceSpec& device :
       {Cu140Datasheet(), IntelCardDatasheet(), Sdp10Datasheet()}) {
    SimConfig config = MakePaperConfig(device, 512 * 1024);
    config.sram_bytes = 0;
    config.fault.power_loss_interval_us = UsFromSec(1.0);
    const SimResult result = RunNamedWorkload("synth", config, 0.2);
    EXPECT_GT(result.power_losses, 0u) << device.name;
    EXPECT_GT(result.lost_acked_writes, 0u) << device.name;
  }
}

// ---------------------------------------------------------------------------
// The shared log-structured fault paths (wear-out, factory bad blocks, the
// capacity timeline, power-loss recovery) under both flash timings.  The
// NAND preset has a tenth of the card's endurance, so each device gets its
// own utilization and endurance scale that retire several segments without
// wedging the device.

struct FlashFaultCase {
  const char* name;
  DeviceSpec (*spec)();
  double wear_utilization;
  double endurance_scale;
};

void PrintTo(const FlashFaultCase& c, std::ostream* os) { *os << c.name; }

class FlashFaultTest : public ::testing::TestWithParam<FlashFaultCase> {
 protected:
  static SimConfig Config() { return MakePaperConfig(GetParam().spec(), 512 * 1024); }

  static SimConfig WearConfig() {
    SimConfig config = Config();
    config.flash_utilization = GetParam().wear_utilization;
    config.fault.wear_out = true;
    config.fault.endurance_scale = GetParam().endurance_scale;
    config.fault.endurance_spread = 0.3;
    return config;
  }
};

TEST_P(FlashFaultTest, PowerLossPaysMountScanRecovery) {
  SimConfig config = Config();
  config.fault.power_loss_interval_us = UsFromSec(1.0);
  const SimResult result = RunNamedWorkload("synth", config, 0.2);
  EXPECT_GT(result.power_losses, 0u);
  EXPECT_GT(result.recovery_sec, 0.0);
  EXPECT_GT(result.recovery_energy_j, 0.0);
}

// Recovery replay is deterministic: the same seed and schedule produce
// byte-identical exported rows across repeated runs.
TEST_P(FlashFaultTest, PowerLossRecoveryIsIdempotentAcrossRuns) {
  SimConfig config = Config();
  config.sram_bytes = 16 * 1024;
  config.fault.power_loss_interval_us = UsFromSec(0.5);
  config.fault.transient_error_rate = 0.001;
  const SimResult a = RunNamedWorkload("synth", config, 0.2);
  const SimResult b = RunNamedWorkload("synth", config, 0.2);
  EXPECT_EQ(RowToJson(ResultToRow(a)), RowToJson(ResultToRow(b)));
  EXPECT_GT(a.power_losses, 0u);
}

// A power loss during background cleaning.  Interrupted mid-copy, the job
// is dropped (the partial copies are superseded data the mount scan
// ignores) and the victim is cleaned again later; interrupted mid-erase,
// every copy is durable, so recovery re-issues the erase and commits.
TEST_P(FlashFaultTest, PowerLossMidCleaningReplaysOrCommitsTheJob) {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 2 * 1024 * 1024;  // 16 erase segments
  // A same-instant burst of overwrites leaves a cleaning job running.
  auto burst = [&options] {
    auto device = std::make_unique<LogFlashDevice>(GetParam().spec(), options);
    device->Preload(1024, 0.85, /*interleave=*/true);
    Rng rng(3);
    BlockRecord rec;
    rec.op = OpType::kWrite;
    rec.block_count = 1;
    for (int i = 0; i < 300; ++i) {
      rec.lba = static_cast<std::uint64_t>(rng.UniformInt(0, 1023));
      device->Write(0, rec);
    }
    return device;
  };
  const std::unique_ptr<LogFlashDevice> probe = burst();
  ASSERT_EQ(probe->counters().clean_jobs, probe->counters().segment_erases + 1);
  const FlashCosts costs = probe->timing().costs();
  const SimTime job_bound =
      probe->segments().blocks_per_segment() * costs.block_copy_us + costs.erase_us;

  bool saw_copy_loss = false;
  bool saw_erase_loss = false;
  for (int step = 0; step <= 64; ++step) {
    const std::unique_ptr<LogFlashDevice> device = burst();
    const SimTime loss = device->busy_until() + job_bound * step / 64;
    device->AdvanceTo(loss);
    const std::uint64_t live = device->segments().live_blocks();
    const std::uint64_t erases = device->counters().segment_erases;
    const std::uint64_t jobs = device->counters().clean_jobs;
    const SimTime recovery = device->PowerLoss(loss);
    EXPECT_EQ(device->segments().live_blocks(), live);
    EXPECT_TRUE(device->segments().CheckInvariants());
    if (recovery == costs.mount_scan_us + costs.erase_us) {
      saw_erase_loss = true;
      EXPECT_EQ(device->counters().segment_erases, erases + 1);
      continue;
    }
    ASSERT_EQ(recovery, costs.mount_scan_us);
    EXPECT_EQ(device->counters().segment_erases, erases);
    if (jobs > erases) {
      saw_copy_loss = true;
      // The dropped victim is picked up again once idle time allows.
      device->AdvanceTo(loss + recovery + 2 * job_bound);
      EXPECT_GT(device->counters().clean_jobs, jobs);
      EXPECT_GT(device->counters().segment_erases, erases);
      EXPECT_TRUE(device->segments().CheckInvariants());
    }
  }
  EXPECT_TRUE(saw_copy_loss);
  EXPECT_TRUE(saw_erase_loss);
}

// Wear-out: segments retire as their endurance budgets run out, live data is
// remapped, and usable capacity degrades monotonically over time.
TEST_P(FlashFaultTest, WearOutRetiresSegmentsAndCapacityDegrades) {
  const SimResult result = RunNamedWorkload("synth", WearConfig(), 0.2);
  EXPECT_GT(result.bad_segments, 1u);
  EXPECT_GT(result.remapped_blocks, 0u);
  EXPECT_LT(result.usable_capacity_fraction, 1.0);
  ASSERT_FALSE(result.capacity_timeline.empty());
  double last_fraction = 1.0;
  for (const auto& [at_sec, fraction] : result.capacity_timeline) {
    EXPECT_GE(at_sec, 0.0);
    EXPECT_LT(fraction, last_fraction);
    last_fraction = fraction;
  }
  EXPECT_DOUBLE_EQ(last_fraction, result.usable_capacity_fraction);
}

// The timeline reaches the exported row as "sec=fraction;..." pairs.
TEST_P(FlashFaultTest, CapacityTimelineIsExported) {
  const SimResult result = RunNamedWorkload("synth", WearConfig(), 0.2);
  ASSERT_GT(result.capacity_timeline.size(), 1u);
  std::istringstream entries(ResultToRow(result).Text("capacity_timeline"));
  std::vector<std::pair<double, double>> parsed;
  std::string entry;
  while (std::getline(entries, entry, ';')) {
    const std::size_t eq = entry.find('=');
    ASSERT_NE(eq, std::string::npos) << entry;
    parsed.emplace_back(std::stod(entry.substr(0, eq)), std::stod(entry.substr(eq + 1)));
  }
  EXPECT_EQ(parsed, result.capacity_timeline);
}

TEST_P(FlashFaultTest, FactoryBadBlocksShrinkCapacityUpFront) {
  SimConfig config = Config();
  config.flash_utilization = 0.5;
  config.fault.bad_block_rate = 0.05;
  const SimResult result = RunNamedWorkload("synth", config, 0.05);
  EXPECT_GT(result.bad_segments, 0u);
  EXPECT_LT(result.usable_capacity_fraction, 1.0);
  ASSERT_FALSE(result.capacity_timeline.empty());
  EXPECT_DOUBLE_EQ(result.capacity_timeline.front().first, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, FlashFaultTest,
    ::testing::Values(FlashFaultCase{"intel_datasheet", &IntelCardDatasheet, 0.9, 0.0001},
                      FlashFaultCase{"nand_ssd_4ch", &NandSsd4ch, 0.8, 0.0005}),
    [](const ::testing::TestParamInfo<FlashFaultCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Transient errors: failed I/Os are retried with backoff; retries cost
// simulated time and show up in the counters, and a hostile error rate
// exhausts the retry budget without crashing the run.

TEST(TransientErrorTest, RetriesAreCountedAndRunCompletes) {
  SimConfig config = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  config.fault.transient_error_rate = 0.01;
  const SimResult result = RunNamedWorkload("synth", config, 0.2);
  EXPECT_GT(result.transient_errors, 0u);
  EXPECT_GT(result.io_retries, 0u);
  EXPECT_EQ(result.io_failures, 0u);  // p(4 consecutive errors) ~ 1e-8
}

TEST(TransientErrorTest, HostileRateExhaustsRetries) {
  SimConfig config = MakePaperConfig(Cu140Datasheet(), 512 * 1024);
  config.fault.transient_error_rate = 0.9;
  config.fault.max_retries = 2;
  const SimResult result = RunNamedWorkload("synth", config, 0.05);
  EXPECT_GT(result.io_retries, 0u);
  EXPECT_GT(result.io_failures, 0u);
}

TEST(TransientErrorTest, RetriesCostSimulatedTime) {
  SimConfig base = MakePaperConfig(Cu140Datasheet(), 512 * 1024);
  base.export_columns = ColumnGroups().With(ColumnGroup::kFault);
  const SimResult clean = RunNamedWorkload("synth", base, 0.05);

  SimConfig faulty = base;
  faulty.fault.transient_error_rate = 0.2;
  const SimResult noisy = RunNamedWorkload("synth", faulty, 0.05);
  EXPECT_GT(noisy.io_retries, 0u);
  EXPECT_GT(noisy.overall_response_ms.mean(), clean.overall_response_ms.mean());
}

// ---------------------------------------------------------------------------
// Sweep-level fault tolerance: one point blowing up must not take down the
// sweep; it is exported as an `_error` row (JSONL only) and benchdiff treats
// it as incomparable, never as a regression.

ExperimentSpec TinySpec() {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  spec.devices = {IntelCardDatasheet(), Sdp5Datasheet()};
  spec.workloads = {"synth"};
  spec.utilizations = {0.5};
  spec.scale = 0.05;
  return spec;
}

TEST(SweepFaultToleranceTest, FailedPointBecomesErrorRowAndOthersFinish) {
  std::vector<ExperimentPoint> points = EnumerateGrid(TinySpec());
  ASSERT_EQ(points.size(), 2u);
  // Sabotage point 0: a capacity far below the trace's live data makes the
  // flash card's preload MOBISIM_CHECK throw inside RunSimulation.
  points[0].config.capacity_bytes = 256 * 1024;
  points[0].config.auto_capacity = false;

  std::ostringstream jsonl;
  std::ostringstream csv;
  JsonlResultSink jsonl_sink(jsonl);
  CsvResultSink csv_sink(csv, SweepCsvHeader());
  SweepOptions options;
  options.threads = 2;
  options.sinks = {&jsonl_sink, &csv_sink};

  const std::vector<SweepOutcome> outcomes = CollectSweep(points, options);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].failed);
  EXPECT_NE(outcomes[0].error.find("MOBISIM_CHECK failed"), std::string::npos);
  EXPECT_NE(outcomes[0].row.Text("_error").find("MOBISIM_CHECK"), std::string::npos);
  EXPECT_FALSE(outcomes[1].failed);
  EXPECT_GT(outcomes[1].result.record_count, 0u);

  // JSONL carries the error row; the rigid-schema CSV skips it.
  EXPECT_NE(jsonl.str().find("\"_error\""), std::string::npos);
  EXPECT_EQ(csv.str().find("_error"), std::string::npos);
  // CSV = header + the one healthy row.
  std::size_t lines = 0;
  for (const char c : csv.str()) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(SweepFaultToleranceTest, TraceGenerationFailureFailsOnlyItsPoints) {
  std::vector<ExperimentPoint> points = EnumerateGrid(TinySpec());
  ASSERT_EQ(points.size(), 2u);
  points[0].workload = "no-such-workload";

  SweepOptions options;
  options.threads = 1;
  const std::vector<SweepOutcome> outcomes = CollectSweep(points, options);
  EXPECT_TRUE(outcomes[0].failed);
  EXPECT_FALSE(outcomes[0].error.empty());
  EXPECT_FALSE(outcomes[1].failed);
}

TEST(SweepFaultToleranceTest, FaultSweepIsDeterministicAcrossThreadCounts) {
  ExperimentSpec spec = TinySpec();
  spec.power_loss_intervals = {0.5};
  spec.base.fault.transient_error_rate = 0.001;
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);

  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<SweepOutcome> a = CollectSweep(points, serial);
  const std::vector<SweepOutcome> b = CollectSweep(points, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(RowToJson(a[i].row), RowToJson(b[i].row)) << "point " << i;
  }
}

// ---------------------------------------------------------------------------
// benchdiff: `_error` rows are skipped points, not regressions.

ResultRow HealthyRow(std::size_t point, double energy) {
  ResultRow row;
  row.AddInt("point", point);
  row.AddText("workload", "synth");
  row.AddText("device", "intel-datasheet");
  row.AddNumber("total_energy_j", energy);
  return row;
}

ResultRow ErrorRow(std::size_t point) {
  ResultRow row;
  row.AddInt("point", point);
  row.AddText("workload", "synth");
  row.AddText("device", "intel-datasheet");
  row.AddText("_error", "MOBISIM_CHECK failed: boom");
  return row;
}

TEST(BenchdiffFaultTest, ErrorRowsAreSkippedNotRegressions) {
  StoredRun base;
  base.rows = {HealthyRow(0, 100.0), HealthyRow(1, 100.0)};
  StoredRun cand;
  // Point 1 failed in the candidate: same point count, but its row carries
  // `_error` instead of metrics (and would read as energy 0, a huge
  // "improvement", or worse as a regression with the sign flipped, if it
  // were compared).
  cand.rows = {HealthyRow(0, 100.0), ErrorRow(1)};

  DiffOptions options;
  options.metrics = {"total_energy_j"};
  const DiffReport report = DiffRuns(base, cand, options);
  EXPECT_TRUE(report.comparable);
  EXPECT_EQ(report.points, 1u);
  EXPECT_EQ(report.skipped_points, 1u);
  EXPECT_FALSE(report.HasRegressions());
  ASSERT_EQ(report.summaries.size(), 1u);
  EXPECT_EQ(report.summaries[0].pass, 1u);
  EXPECT_NE(RenderReportText(report).find("skipped"), std::string::npos);
  EXPECT_NE(RenderReportMarkdown(report).find("skipped"), std::string::npos);
}

TEST(BenchdiffFaultTest, AllPointsFailedStillComparable) {
  StoredRun base;
  base.rows = {ErrorRow(0)};
  StoredRun cand;
  cand.rows = {ErrorRow(0)};
  DiffOptions options;
  options.metrics = {"total_energy_j"};
  const DiffReport report = DiffRuns(base, cand, options);
  EXPECT_TRUE(report.comparable);
  EXPECT_EQ(report.points, 0u);
  EXPECT_EQ(report.skipped_points, 1u);
  EXPECT_FALSE(report.HasRegressions());
  EXPECT_TRUE(report.skipped_metrics.empty());
}

// ---------------------------------------------------------------------------
// Spec plumbing: fault keys parse, sweep dimension enumerates, fingerprints
// of fault-free specs are untouched.

TEST(FaultSpecTest, FaultKeysParse) {
  SimConfig config;
  std::string error;
  EXPECT_TRUE(ApplyConfigAssignment(&config, "fault.power_loss_interval", "2.5", &error));
  EXPECT_EQ(config.fault.power_loss_interval_us, UsFromSec(2.5));
  EXPECT_TRUE(ApplyConfigAssignment(&config, "fault.transient_error_rate", "0.01", &error));
  EXPECT_DOUBLE_EQ(config.fault.transient_error_rate, 0.01);
  EXPECT_TRUE(ApplyConfigAssignment(&config, "fault.wear_out", "true", &error));
  EXPECT_TRUE(config.fault.wear_out);
  EXPECT_TRUE(config.fault.enabled());
  EXPECT_FALSE(ApplyConfigAssignment(&config, "fault.bad_block_rate", "1.5", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "fault.max_retries", "2.5", &error));
}

TEST(FaultSpecTest, PowerLossIntervalsDimensionEnumerates) {
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "power_loss_intervals", "0, 1.0, 10.0", &error))
      << error;
  ASSERT_EQ(spec.power_loss_intervals.size(), 3u);
  EXPECT_EQ(GridSize(spec), 3u);
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].config.fault.power_loss_interval_us, 0);
  EXPECT_EQ(points[1].config.fault.power_loss_interval_us, UsFromSec(1.0));
  EXPECT_EQ(points[2].config.fault.power_loss_interval_us, UsFromSec(10.0));
  // Export is uniform across the sweep, including the fault-free point, so
  // every row shares one schema.
  for (const ExperimentPoint& point : points) {
    EXPECT_TRUE(point.config.export_columns.Has(ColumnGroup::kFault));
  }
}

TEST(FaultSpecTest, FaultFreeSpecFingerprintUnchangedByFaultSupport) {
  // The canonical text of a spec with no fault configuration must not
  // mention faults at all — that is what keeps committed spec fingerprints
  // valid across this feature's introduction.
  ExperimentSpec spec;
  const std::string canon = CanonicalSpecText(spec);
  EXPECT_EQ(canon.find("fault"), std::string::npos);
  EXPECT_EQ(canon.find("power_loss"), std::string::npos);

  ExperimentSpec faulty = spec;
  faulty.power_loss_intervals = {1.0};
  EXPECT_NE(CanonicalSpecText(faulty).find("power_loss_intervals"), std::string::npos);
  EXPECT_NE(SpecFingerprint(spec), SpecFingerprint(faulty));
}

}  // namespace
}  // namespace mobisim
