// Tests for the FtlPolicy layer: the reference sweeps reproduce their
// tests/golden/ rows byte-for-byte at 1 and 4 threads, the spec
// fingerprints of every committed spec are pinned (the refactor must not
// move them), page-diff merge-on-read and diff-page accounting behave per
// the Kim/Whang/Song scheme, the FAT remap table wraps and flushes map
// pages, and the `backends=` / `ftl=` sweep dimensions enumerate correctly.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/config_text.h"
#include "src/core/result_io.h"
#include "src/device/device_catalog.h"
#include "src/flash/ftl_policy.h"
#include "src/runner/ablation.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/sweep_runner.h"
#include "tests/collect_sweep.h"

#ifndef MOBISIM_GOLDEN_DIR
#error "MOBISIM_GOLDEN_DIR must name the tests/golden directory"
#endif
#ifndef MOBISIM_SPEC_DIR
#error "MOBISIM_SPEC_DIR must name the repo's specs directory"
#endif

namespace mobisim {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Runs the spec on `threads` workers and renders each row exactly as the
// JSONL sink does, so comparing against a golden file is a byte-level
// statement.
std::vector<std::string> SweepRowsJson(const ExperimentSpec& spec, int threads) {
  SweepOptions options;
  options.threads = threads;
  std::vector<std::string> rows;
  for (const SweepOutcome& outcome : CollectSweep(EnumerateGrid(spec), options)) {
    EXPECT_FALSE(outcome.failed) << outcome.error;
    rows.push_back(RowToJson(outcome.row));
  }
  return rows;
}

// --- Reference rows: tests/golden/ is their one home ---------------------

// Each golden holds a sweep's JSONL data rows (its `_meta` line stripped).
// Every spec runs on 1 and on 4 workers: the rows must match the golden
// byte for byte at both, so a result that depends on the thread count
// fails here.  To refresh a golden after a deliberate change:
//   mobisim_sweep --spec FILE --jsonl - --quiet | grep -v '"_meta"' > tests/golden/NAME
TEST(FtlGoldenTest, ReferenceSweepsMatchTheirGoldens) {
  const struct {
    const char* spec_file;  // under specs/, or null for `spec_text`
    const char* spec_text;
    const char* golden;
  } kSweeps[] = {
      // Both storage organizations, both calibrated traces, at the two
      // utilizations that bound the cleaning-cost curve.
      {"ci_reference.spec", nullptr, "ci_reference_sweep.jsonl"},
      // All three log cleaners at both utilization extremes.
      {nullptr,
       "device = intel-datasheet\n"
       "workloads = synth\n"
       "utilizations = 0.50, 0.90\n"
       "cleaning_policies = greedy, cost-benefit, wear-aware\n"
       "seeds = 1\n"
       "scale = 0.2\n",
       "cleaning_policies_sweep.jsonl"},
      // Both optional groups on: the golden pins their columns' order (ftl,
      // backend and power_loss_interval_sec after cleaning_policy; the FTL
      // counters before mode_seconds, the fault block after it).
      {nullptr,
       "devices = intel-datasheet\n"
       "workloads = synth\n"
       "utilizations = 0.5\n"
       "ftl = greedy, page-diff\n"
       "power_loss_intervals = 0, 2.0\n"
       "seeds = 1\n"
       "scale = 0.05\n",
       "ftl_fault_sweep.jsonl"},
      // Every FTL policy, page-differential logging and FAT remapping
      // included, on the flash card and the NAND tier.
      {"ablation_smoke.spec", nullptr, "ablation_smoke_sweep.jsonl"},
  };
  for (const auto& sweep : kSweeps) {
    SCOPED_TRACE(sweep.golden);
    std::string error;
    const auto spec = ParseExperimentSpec(
        sweep.spec_file != nullptr
            ? ReadFile(std::string(MOBISIM_SPEC_DIR) + "/" + sweep.spec_file)
            : std::string(sweep.spec_text),
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    const std::vector<std::string> golden =
        ReadLines(std::string(MOBISIM_GOLDEN_DIR) + "/" + sweep.golden);
    ASSERT_EQ(golden.size(), EnumerateGrid(*spec).size());
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      EXPECT_EQ(SweepRowsJson(*spec, threads), golden);
    }
  }
}

// Spec fingerprints name a spec in every run's `_meta` line and in the
// result store; the policy API must leave every committed spec's
// fingerprint where it was.  Comments do not move a fingerprint: only a
// change to what a spec resolves to does.
TEST(FtlGoldenTest, CommittedSpecFingerprintsArePinned) {
  const struct {
    const char* file;
    const char* fingerprint;
  } kPins[] = {
      {"ci_reference.spec", "1b859d7daa61912e"},
      {"fault_endurance.spec", "d55aa17cfbd1bff5"},
      {"fault_power_loss.spec", "7c84a55605073a37"},
      {"fault_smoke.spec", "d27936fc27f6c4a2"},
      {"sweepd_error.spec", "fe6a2eb9ab61c83b"},
      {"ablation_smoke.spec", "e465d2f7bf61ad71"},  // the FTL block
  };
  for (const auto& pin : kPins) {
    std::string error;
    const auto spec = ParseExperimentSpec(
        ReadFile(std::string(MOBISIM_SPEC_DIR) + "/" + pin.file), &error);
    ASSERT_TRUE(spec.has_value()) << pin.file << ": " << error;
    EXPECT_EQ(SpecFingerprint(*spec), pin.fingerprint) << pin.file;
  }
  // Inline specs for the blocks no committed spec reaches alone.
  const struct {
    const char* text;
    const char* fingerprint;
  } kInlinePins[] = {
      // The NAND device block.
      {"device = nand-ssd-4ch\nnand.channels = 2\nworkloads = synth\n"
       "utilizations = 0.5\nseeds = 1\nscale = 0.05\n",
       "99ef9dfc6948aceb"},
      // The fault block, then the FTL block.
      {"devices = intel-datasheet\nworkloads = synth\nutilizations = 0.5\n"
       "ftl = greedy, page-diff\npower_loss_intervals = 0, 2.0\nseeds = 1\n"
       "scale = 0.05\n",
       "ef5c0fe23247b66e"},
  };
  for (const auto& pin : kInlinePins) {
    std::string error;
    const auto spec = ParseExperimentSpec(pin.text, &error);
    ASSERT_TRUE(spec.has_value()) << pin.text << ": " << error;
    EXPECT_EQ(SpecFingerprint(*spec), pin.fingerprint) << pin.text;
  }
}

// --- Page-differential logging -------------------------------------------

TEST(PageDiffFtlTest, AbsorbsOverwritesAsDiffsThenMerges) {
  constexpr std::uint32_t kBlock = 4096;
  PageDiffFtl ftl(CleaningPolicy::kGreedy);
  ftl.AttachMetaWindow(/*base=*/100, /*available=*/400, kBlock);

  // First write of an unmapped block: the classic full-page append.
  HostWritePlan plan = ftl.PlanHostWrite(7, /*mapped=*/false, kBlock);
  EXPECT_EQ(plan.append_count, 1u);
  EXPECT_EQ(plan.appends[0], 7u);
  EXPECT_EQ(plan.programmed_bytes, kBlock);
  EXPECT_EQ(plan.merge_read_bytes, 0u);

  // Three overwrites absorb as quarter-page diffs (max_diffs = 3): no log
  // append of the block itself, a quarter page programmed each time.
  for (int i = 0; i < 3; ++i) {
    plan = ftl.PlanHostWrite(7, /*mapped=*/true, kBlock);
    EXPECT_EQ(plan.programmed_bytes, kBlock / 4);
    EXPECT_EQ(plan.merge_read_bytes, 0u);
  }
  EXPECT_EQ(ftl.counters().diff_writes, 3u);

  // The fourth overwrite finds the chain full: merge.  The base page plus
  // its three diffs are read back internally and the folded page rewritten.
  plan = ftl.PlanHostWrite(7, /*mapped=*/true, kBlock);
  EXPECT_EQ(plan.append_count, 1u);
  EXPECT_EQ(plan.appends[0], 7u);
  EXPECT_EQ(plan.programmed_bytes, kBlock);
  EXPECT_EQ(plan.merge_read_bytes, kBlock + 3u * (kBlock / 4));
  EXPECT_EQ(ftl.counters().diff_merges, 1u);

  // The merge cleared the chain: the next overwrite diffs again.
  plan = ftl.PlanHostWrite(7, /*mapped=*/true, kBlock);
  EXPECT_EQ(plan.programmed_bytes, kBlock / 4);
}

TEST(PageDiffFtlTest, MergeOnReadChargesOutstandingDiffs) {
  constexpr std::uint32_t kBlock = 4096;
  PageDiffFtl ftl(CleaningPolicy::kGreedy);
  ftl.AttachMetaWindow(100, 400, kBlock);

  // No diffs outstanding: reads are free.
  EXPECT_EQ(ftl.ExtraReadBytes(3), 0u);

  ftl.PlanHostWrite(3, false, kBlock);
  ftl.PlanHostWrite(3, true, kBlock);
  ftl.PlanHostWrite(3, true, kBlock);

  // Two outstanding diffs: the read folds both in at a quarter page each,
  // and keeps paying until a merge or trim clears the chain.
  EXPECT_EQ(ftl.ExtraReadBytes(3), 2u * (kBlock / 4));
  EXPECT_EQ(ftl.ExtraReadBytes(3), 2u * (kBlock / 4));
  EXPECT_EQ(ftl.counters().diff_merge_reads, 2u);

  ftl.OnTrim(3);
  EXPECT_EQ(ftl.ExtraReadBytes(3), 0u);

  // Metadata pages themselves never carry diffs.
  EXPECT_EQ(ftl.ExtraReadBytes(100), 0u);
}

TEST(PageDiffFtlTest, DiffPageAppendsOnceAPageAccumulates) {
  constexpr std::uint32_t kBlock = 4096;
  PageDiffFtl ftl(CleaningPolicy::kGreedy);
  ftl.AttachMetaWindow(100, 400, kBlock);
  ASSERT_EQ(ftl.pool_pages(), 32u);  // min(32, 400/4)

  for (std::uint64_t lba = 0; lba < 8; ++lba) {
    ftl.PlanHostWrite(lba, false, kBlock);
  }
  // Quarter-page diffs across distinct blocks share one diff page: the
  // fourth diff completes a page's worth and triggers the physical append
  // of diff page meta_base + 0.
  std::uint32_t diff_page_appends = 0;
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    const HostWritePlan plan = ftl.PlanHostWrite(lba, true, kBlock);
    if (plan.append_count > 0) {
      ++diff_page_appends;
      EXPECT_EQ(plan.appends[0], 100u);
    }
  }
  EXPECT_EQ(diff_page_appends, 1u);

  // The next full page of diffs lands on the next pool page (round-robin).
  for (std::uint64_t lba = 4; lba < 7; ++lba) {
    EXPECT_EQ(ftl.PlanHostWrite(lba, true, kBlock).append_count, 0u);
  }
  const HostWritePlan plan = ftl.PlanHostWrite(7, true, kBlock);
  ASSERT_EQ(plan.append_count, 1u);
  EXPECT_EQ(plan.appends[0], 101u);
}

TEST(PageDiffFtlTest, WithoutMetaWindowDegradesToIdentityPlans) {
  constexpr std::uint32_t kBlock = 4096;
  PageDiffFtl ftl(CleaningPolicy::kGreedy);  // no AttachMetaWindow
  const HostWritePlan plan = ftl.PlanHostWrite(7, true, kBlock);
  EXPECT_EQ(plan.append_count, 1u);
  EXPECT_EQ(plan.appends[0], 7u);
  EXPECT_EQ(plan.programmed_bytes, kBlock);
  EXPECT_EQ(ftl.counters().diff_writes, 0u);
}

// --- FAT-style block remapping -------------------------------------------

TEST(FatRemapFtlTest, TableWraparoundFlushesMapPages) {
  constexpr std::uint32_t kBlock = 4096;
  FatRemapFtl::Params params;
  params.table_entries = 3;
  params.map_pool_pages = 2;
  FatRemapFtl ftl(params);
  ftl.AttachMetaWindow(/*base=*/50, /*available=*/40, kBlock);

  // Fresh writes never consume table entries.
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    const HostWritePlan plan = ftl.PlanHostWrite(lba, false, kBlock);
    EXPECT_EQ(plan.append_count, 1u);
    EXPECT_EQ(plan.programmed_bytes, kBlock);
  }
  EXPECT_EQ(ftl.counters().remap_table_hits, 0u);
  EXPECT_EQ(ftl.table_cursor(), 0u);

  // Two overwrites advance the cursor without wrapping.
  EXPECT_EQ(ftl.PlanHostWrite(0, true, kBlock).append_count, 1u);
  EXPECT_EQ(ftl.PlanHostWrite(1, true, kBlock).append_count, 1u);
  EXPECT_EQ(ftl.table_cursor(), 2u);

  // The third overwrite fills the table: wraparound — cursor resets and the
  // plan carries a map-page append (map pool page 0) on top of the block.
  HostWritePlan plan = ftl.PlanHostWrite(2, true, kBlock);
  ASSERT_EQ(plan.append_count, 2u);
  EXPECT_EQ(plan.appends[0], 2u);
  EXPECT_EQ(plan.appends[1], 50u);
  EXPECT_EQ(plan.programmed_bytes, 2u * kBlock);
  EXPECT_EQ(ftl.table_cursor(), 0u);
  EXPECT_EQ(ftl.counters().remap_table_wraps, 1u);

  // The next wrap cycles to map pool page 1, then back to page 0.
  for (int i = 0; i < 3; ++i) {
    plan = ftl.PlanHostWrite(3, true, kBlock);
  }
  ASSERT_EQ(plan.append_count, 2u);
  EXPECT_EQ(plan.appends[1], 51u);
  EXPECT_EQ(ftl.counters().remap_table_wraps, 2u);
  EXPECT_EQ(ftl.counters().remap_table_hits, 6u);

  // Remapped blocks count table hits on read; trimmed blocks drop out.
  EXPECT_EQ(ftl.ExtraReadBytes(0), 0u);
  EXPECT_EQ(ftl.counters().remap_table_hits, 7u);
  ftl.OnTrim(0);
  EXPECT_EQ(ftl.ExtraReadBytes(0), 0u);
  EXPECT_EQ(ftl.counters().remap_table_hits, 7u);
}

TEST(FatRemapFtlTest, VictimOrderIsStrictFifo) {
  const FatRemapFtl ftl;
  VictimView view;
  view.blocks_per_segment = 16;
  view.fill_sequence = 10;
  VictimCandidate old_seg;
  old_seg.sequence = 1;
  old_seg.live = 15;  // nearly full of live data...
  VictimCandidate young_seg;
  young_seg.sequence = 9;
  young_seg.live = 1;  // ...but FIFO ignores liveness entirely
  EXPECT_GT(ftl.ScoreVictim(old_seg, view), ftl.ScoreVictim(young_seg, view));
  // Scores stay positive so the `score > -1` victim scan always engages.
  EXPECT_GT(ftl.ScoreVictim(young_seg, view), 0.0);
}

// --- Name parsing and the sweep dimensions -------------------------------

TEST(FtlSelectionTest, CleanerNamesMapToLogStructured) {
  const auto greedy = FtlSelectionByName("greedy");
  ASSERT_TRUE(greedy.has_value());
  EXPECT_EQ(greedy->kind, FtlPolicyKind::kLogStructured);
  ASSERT_TRUE(greedy->cleaner.has_value());
  EXPECT_EQ(*greedy->cleaner, CleaningPolicy::kGreedy);

  // Underscores are tolerated everywhere names are parsed.
  const auto cb = FtlSelectionByName("cost_benefit");
  ASSERT_TRUE(cb.has_value());
  EXPECT_EQ(cb->kind, FtlPolicyKind::kLogStructured);
  EXPECT_EQ(*cb->cleaner, CleaningPolicy::kCostBenefit);

  const auto page_diff = FtlSelectionByName("page_diff");
  ASSERT_TRUE(page_diff.has_value());
  EXPECT_EQ(page_diff->kind, FtlPolicyKind::kPageDiff);
  EXPECT_FALSE(page_diff->cleaner.has_value());

  EXPECT_FALSE(FtlSelectionByName("fifo").has_value());
  EXPECT_FALSE(FtlSelectionByName("").has_value());
}

TEST(FtlDimensionTest, BackendAndFtlAxesMultiplyTheGrid) {
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "workloads", "synth", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "utilizations", "0.5", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "backends", "average-cost, geometry", &error))
      << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "ftl", "greedy, page_diff, fat_remap", &error))
      << error;
  EXPECT_EQ(GridSize(spec), 6u);

  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 6u);
  // Backend is the outer axis, ftl the inner; every ftl point exports the
  // policy columns.
  EXPECT_FALSE(points[0].config.use_disk_geometry);
  EXPECT_TRUE(points[3].config.use_disk_geometry);
  EXPECT_EQ(points[0].config.ftl_policy, FtlPolicyKind::kLogStructured);
  EXPECT_EQ(points[0].config.cleaning_policy, CleaningPolicy::kGreedy);
  EXPECT_EQ(points[1].config.ftl_policy, FtlPolicyKind::kPageDiff);
  EXPECT_EQ(points[2].config.ftl_policy, FtlPolicyKind::kFatRemap);
  for (const ExperimentPoint& point : points) {
    EXPECT_TRUE(point.config.export_columns.Has(ColumnGroup::kFtl));
  }

  EXPECT_FALSE(ApplySpecAssignment(&spec, "ftl", "greedy, fifo", &error));
  EXPECT_FALSE(ApplySpecAssignment(&spec, "backends", "geometry, ramdisk", &error));
}

TEST(FtlDimensionTest, FtlRowsCarryPolicyColumnsAndHistoricRowsDoNot) {
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "workloads", "synth", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "utilizations", "0.5", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "scale", "0.05", &error)) << error;

  // A plain cleaner sweep keeps the historical schema: no ftl column.
  const auto plain = EnumerateGrid(spec);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(PointToRow(plain[0]).Find("ftl"), nullptr);

  ASSERT_TRUE(ApplySpecAssignment(&spec, "ftl", "greedy, page_diff", &error)) << error;
  const auto points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 2u);
  const ResultRow row = PointToRow(points[1]);
  ASSERT_NE(row.Find("ftl"), nullptr);
  EXPECT_EQ(row.Text("ftl", ""), "page-diff");
  EXPECT_EQ(row.Text("backend", ""), "average-cost");
}

// --- The backend axis --------------------------------------------------------

// `backends = geometry` times each drive over its own catalog geometry: the
// grid's Kittyhawk row is the one a hand-built Kittyhawk-geometry point gives,
// and not the one the CU140's geometry gives.
TEST(BackendAxisTest, GeometryRowsUseEachDrivesCatalogGeometry) {
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "devices", "kh-datasheet", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "workloads", "mac", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "backends", "geometry", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&spec, "scale", "0.05", &error)) << error;
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 1u);

  ExperimentPoint by_hand = points[0];
  by_hand.config.device = KittyhawkDatasheet();
  by_hand.config.device.geometry = KittyhawkGeometry();
  by_hand.config.use_disk_geometry = true;
  ExperimentPoint cu140_geometry = by_hand;
  cu140_geometry.config.device.geometry = Cu140Geometry();

  const auto row = [](const ExperimentPoint& point) {
    const std::vector<SweepOutcome> outcomes = CollectSweep({point}, SweepOptions{});
    EXPECT_FALSE(outcomes.at(0).failed) << outcomes.at(0).error;
    return RowToJson(outcomes.at(0).row);
  };
  EXPECT_EQ(row(points[0]), row(by_hand));
  EXPECT_NE(row(points[0]), row(cu140_geometry));
}

// Only a magnetic disk reads the backend, and only log-structured flash the
// FTL: of 18 points, the card runs once per FTL, the flash disk once and the
// disk once per backend.
TEST(BackendAxisTest, OnlyDisksSplitOnTheBackendAxis) {
  ExperimentSpec spec;
  std::string error;
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"devices", "intel-datasheet,sdp5-datasheet,cu140-datasheet"},
           {"workloads", "synth"},
           {"utilizations", "0.9"},
           {"backends", "average-cost,geometry"},
           {"ftl", "greedy,page-diff,fat-remap"}}) {
    ASSERT_TRUE(ApplySpecAssignment(&spec, key, value, &error)) << error;
  }
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 18u);
  const std::vector<std::size_t> leaders = SimulationLeaders(points);
  std::size_t simulations = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    simulations += leaders[i] == i ? 1 : 0;
  }
  EXPECT_EQ(simulations, 3u + 1u + 2u);
}

// --- Optional column groups ----------------------------------------------

TEST(ColumnGroupsTest, OneRuleForConfigsAndOneAxisMapForGrids) {
  const ColumnGroups none;
  const ColumnGroups ftl = none.With(ColumnGroup::kFtl);
  const ColumnGroups fault = none.With(ColumnGroup::kFault);
  const ColumnGroups both = ftl.With(ColumnGroup::kFault);
  EXPECT_TRUE(ColumnGroupsOf(ExperimentSpec()) == none);

  // A config carries a group when it uses the feature or exports it.
  SimConfig config;
  EXPECT_TRUE(ColumnGroupsOf(config) == none);
  config.ftl_policy = FtlPolicyKind::kFatRemap;
  EXPECT_TRUE(ColumnGroupsOf(config) == ftl);
  config.fault.bad_block_rate = 0.01;
  EXPECT_TRUE(ColumnGroupsOf(config) == both);
  SimConfig exported;
  std::string error;
  ASSERT_TRUE(ApplyConfigAssignment(&exported, "export_ftl", "true", &error)) << error;
  EXPECT_TRUE(ColumnGroupsOf(exported) == ftl);
  exported.export_columns = exported.export_columns.With(ColumnGroup::kFault);
  EXPECT_TRUE(ColumnGroupsOf(exported) == both);

  // A grid adds the group of each listed axis, and stamps its groups on
  // every point.
  const struct {
    const char* key;
    const char* value;
    ColumnGroups groups;
  } kAxes[] = {
      {"ftl", "greedy, page-diff", ftl},
      {"backends", "average-cost, geometry", ftl},
      {"power_loss_intervals", "0, 2.0", fault},
      {"cleaning_policies", "greedy, cost-benefit", none},
      {"export_ftl", "true", ftl},
      {"fault.transient_error_rate", "0.01", fault},
  };
  for (const auto& axis : kAxes) {
    SCOPED_TRACE(axis.key);
    ExperimentSpec spec;
    ASSERT_TRUE(ApplySpecAssignment(&spec, axis.key, axis.value, &error)) << error;
    EXPECT_TRUE(ColumnGroupsOf(spec) == axis.groups);
    for (const ExperimentPoint& point : EnumerateGrid(spec)) {
      EXPECT_TRUE(point.config.export_columns == axis.groups);
    }
  }
}

// --- Ablation matrix rendering -------------------------------------------

TEST(AblationMatrixTest, RendersPolicyColumnsAndErrorCells) {
  auto make_row = [](const char* ftl, const char* cleaner, double util,
                     double energy, bool error) {
    ResultRow row;
    row.AddText("workload", "synth");
    row.AddText("device", "intel-datasheet");
    row.AddNumber("utilization", util);
    row.AddText("cleaning_policy", cleaner);
    row.AddText("ftl", ftl);
    if (error) {
      row.AddText("_error", "boom");
    } else {
      row.AddNumber("total_energy_j", energy);
    }
    return row;
  };
  const std::vector<ResultRow> rows = {
      make_row("log", "greedy", 0.5, 10.0, false),
      make_row("log", "greedy", 0.5, 14.0, false),  // replica: means to 12.00
      make_row("page-diff", "greedy", 0.5, 8.0, false),
      make_row("fat-remap", "greedy", 0.5, 0.0, true),
  };
  const std::string matrix = RenderAblationMatrix(rows);
  EXPECT_NE(matrix.find("| greedy | page-diff | fat-remap |"), std::string::npos);
  EXPECT_NE(matrix.find("synth / intel-datasheet / 50% | 12.00 | 8.00 | ERR |"),
            std::string::npos);
  EXPECT_NE(RenderAblationMatrix({}).find("(no data rows)"), std::string::npos);
}

}  // namespace
}  // namespace mobisim
