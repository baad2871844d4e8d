// Tests for the trace-driven simulator: warm-start handling, energy
// attribution, determinism, cross-device orderings the paper reports, and
// the EffectiveConfig reset table sweeps rely on to share simulations.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/result_io.h"
#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"

namespace mobisim {
namespace {

TraceView TinyTrace() {
  const Trace trace = GenerateNamedWorkload("synth", 0.1);
  return BlockMapper::Map(trace);
}

TEST(SimulatorTest, WarmFractionSplitsRecords) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024);
  config.warm_fraction = 0.25;
  const SimResult result = RunSimulation(trace, config);
  EXPECT_EQ(result.warm_record_count, trace.size() / 4);
  std::uint64_t post_warm_rw = 0;
  for (std::uint64_t i = result.warm_record_count; i < trace.size(); ++i) {
    post_warm_rw += static_cast<OpType>(trace.ops()[i]) != OpType::kErase ? 1 : 0;
  }
  EXPECT_EQ(result.overall_response_ms.count(), post_warm_rw);
}

TEST(SimulatorTest, PostWarmEnergyLessThanWholeRun) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
  SimConfig no_warm = config;
  no_warm.warm_fraction = 0.0;
  const double with_warm = RunSimulation(trace, config).total_energy_j();
  const double full = RunSimulation(trace, no_warm).total_energy_j();
  EXPECT_GT(full, with_warm);
  EXPECT_GT(with_warm, 0.0);
}

TEST(SimulatorTest, Deterministic) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
  const SimResult a = RunSimulation(trace, config);
  const SimResult b = RunSimulation(trace, config);
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_DOUBLE_EQ(a.read_response_ms.mean(), b.read_response_ms.mean());
  EXPECT_DOUBLE_EQ(a.write_response_ms.max(), b.write_response_ms.max());
  EXPECT_EQ(a.counters.segment_erases, b.counters.segment_erases);
}

TEST(SimulatorTest, DeviceModeBreakdownCoversTheRun) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
  const SimResult result = RunSimulation(trace, config);
  ASSERT_EQ(result.device_mode_seconds.size(), 5u);  // disk has 5 modes
  double total_sec = 0.0;
  for (const auto& [mode, seconds] : result.device_mode_seconds) {
    EXPECT_GE(seconds, 0.0) << mode;
    total_sec += seconds;
  }
  // Mode times tile the whole run (within rounding).
  const double span_sec = SecFromUs(trace.times()[trace.size() - 1]);
  EXPECT_NEAR(total_sec, span_sec, 0.05 * span_sec + 5.0);
  EXPECT_FALSE(result.device_energy_breakdown.empty());
}

TEST(SimulatorTest, PcIsAnAliasForDos) {
  const Trace pc = GenerateNamedWorkload("pc", 0.1);
  const Trace dos = GenerateNamedWorkload("dos", 0.1);
  ASSERT_EQ(pc.records.size(), dos.records.size());
  EXPECT_EQ(pc.records[7].time_us, dos.records[7].time_us);
}

TEST(SimulatorTest, HpRunsWithoutDram) {
  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024);
  const SimResult result = RunNamedWorkload("hp", config, 0.05);
  EXPECT_EQ(result.dram_hits, 0u);
  EXPECT_EQ(result.dram_misses, 0u);
}

TEST(SimulatorTest, ResponsesSplitByOpType) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024);
  const SimResult result = RunSimulation(trace, config);
  EXPECT_EQ(result.read_response_ms.count() + result.write_response_ms.count(),
            result.overall_response_ms.count());
  EXPECT_GE(result.write_response_ms.max(), result.write_response_ms.mean());
}

// The paper's headline orderings, checked end-to-end on the synth workload.
TEST(SimulatorOrderingTest, FlashBeatsDiskOnEnergy) {
  const TraceView trace = TinyTrace();
  const double disk =
      RunSimulation(trace, MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024))
          .total_energy_j();
  const double flash_disk =
      RunSimulation(trace, MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024))
          .total_energy_j();
  const double card =
      RunSimulation(trace, MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024))
          .total_energy_j();
  EXPECT_LT(flash_disk, disk);
  EXPECT_LT(card, disk);
  // Order-of-magnitude claim from the abstract.
  EXPECT_LT(card, disk / 3.0);
}

TEST(SimulatorOrderingTest, FlashCardReadsBeatFlashDiskReads) {
  const TraceView trace = TinyTrace();
  const SimResult flash_disk =
      RunSimulation(trace, MakePaperConfig(Sdp5Datasheet(), 0));
  const SimResult card = RunSimulation(trace, MakePaperConfig(IntelCardDatasheet(), 0));
  EXPECT_LT(card.read_response_ms.mean(), flash_disk.read_response_ms.mean());
}

TEST(SimulatorOrderingTest, DiskWithSramBeatsFlashOnWrites) {
  const TraceView trace = TinyTrace();
  const SimResult disk =
      RunSimulation(trace, MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024));
  const SimResult flash_disk =
      RunSimulation(trace, MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024));
  EXPECT_LT(disk.write_response_ms.mean(), flash_disk.write_response_ms.mean());
}

TEST(SimulatorOrderingTest, AsyncErasureImprovesWrites) {
  const TraceView trace = TinyTrace();
  SimConfig sync_config = MakePaperConfig(Sdp5aDatasheet(), 2 * 1024 * 1024);
  sync_config.flash_async_erasure = false;
  SimConfig async_config = MakePaperConfig(Sdp5aDatasheet(), 2 * 1024 * 1024);
  const SimResult sync_result = RunSimulation(trace, sync_config);
  const SimResult async_result = RunSimulation(trace, async_config);
  EXPECT_LT(async_result.write_response_ms.mean(),
            sync_result.write_response_ms.mean() * 0.7);
}

TEST(SimulatorOrderingTest, UtilizationRaisesFlashCardEnergy) {
  const TraceView trace = TinyTrace();
  SimConfig low = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
  low.flash_utilization = 0.40;
  low.capacity_bytes = 16 * 1024 * 1024;
  low.auto_capacity = false;
  SimConfig high = low;
  high.flash_utilization = 0.95;
  const SimResult low_result = RunSimulation(trace, low);
  const SimResult high_result = RunSimulation(trace, high);
  EXPECT_GT(high_result.total_energy_j(), low_result.total_energy_j());
  EXPECT_GT(high_result.counters.blocks_copied, low_result.counters.blocks_copied);
  EXPECT_GT(high_result.max_segment_erases, low_result.max_segment_erases);
}

// Every catalog device, plus both disks on their geometry timing.
std::vector<SimConfig> EveryDeviceConfig() {
  std::vector<SimConfig> configs;
  for (const DeviceSpec& spec : AllDeviceSpecs()) {
    configs.push_back(MakePaperConfig(spec, 2 * 1024 * 1024));
  }
  for (const DeviceSpec& disk : {Cu140Datasheet(), KittyhawkDatasheet()}) {
    configs.push_back(MakePaperConfig(disk, 2 * 1024 * 1024));
    configs.back().use_disk_geometry = true;
  }
  return configs;
}

// Each moves one field EffectiveConfig resets for some device kind away
// from its SimConfig default.
using ConfigMove = void (*)(SimConfig*);
constexpr ConfigMove kResettableFieldMoves[] = {
    [](SimConfig* c) { c->ftl_policy = FtlPolicyKind::kPageDiff; },
    [](SimConfig* c) { c->cleaning_policy = CleaningPolicy::kCostBenefit; },
    [](SimConfig* c) { c->background_cleaning = false; },
    [](SimConfig* c) { c->separate_cleaning_segment = true; },
    [](SimConfig* c) { c->interleave_prefill = true; },
    [](SimConfig* c) { c->flash_utilization = 0.5; },
    [](SimConfig* c) { c->auto_capacity = false; },
    [](SimConfig* c) { c->flash_async_erasure = false; },
    [](SimConfig* c) { c->spin_down_after_us = 2 * kUsPerSec; },
    [](SimConfig* c) { c->spin_down_policy = SpinDownPolicy::kAdaptive; },
    [](SimConfig* c) { c->use_disk_geometry = true; },
};

void MoveResettableFields(SimConfig* config) {
  for (const ConfigMove move : kResettableFieldMoves) {
    move(config);
  }
}

bool IsLogFlash(const SimConfig& config) {
  return config.device.kind == DeviceKind::kFlashCard ||
         config.device.kind == DeviceKind::kNandSsd;
}

// The guard on the hand-written reset table: whatever EffectiveConfig
// resets, the simulation must never have read.  Fields move one at a time
// and all together, since moves can mask each other (a flash disk's
// utilization shows only through its capacity or its pre-erased pool).
TEST(EffectiveConfigTest, ResetFieldsNeverChangeTheRow) {
  for (const std::string workload : {"mac", "hp"}) {
    const TraceView trace = BlockMapper::Map(GenerateNamedWorkload(workload, 0.05));
    for (SimConfig base : EveryDeviceConfig()) {
      ApplyWorkloadRules(workload, &base);
      std::vector<SimConfig> variants;
      for (const ConfigMove move : kResettableFieldMoves) {
        variants.push_back(base);
        move(&variants.back());
      }
      variants.push_back(base);
      MoveResettableFields(&variants.back());
      // Every kind resets some moved field: the spindle's or the flash's.
      EXPECT_FALSE(EffectiveConfig(variants.back()) == variants.back());
      for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE(workload + " on " + base.device.name +
                     (base.use_disk_geometry ? " (geometry)" : "") + ", variant " +
                     std::to_string(v));
        EXPECT_EQ(RowToJson(ResultToRow(RunSimulation(trace, variants[v]))),
                  RowToJson(ResultToRow(RunSimulation(trace, EffectiveConfig(variants[v])))));
      }
    }
  }
}

// Log-structured flash reads every moved field but the spindle's.
TEST(EffectiveConfigTest, IdempotentAndIdentityOnLogFlash) {
  for (SimConfig config : EveryDeviceConfig()) {
    SCOPED_TRACE(config.device.name);
    EXPECT_TRUE(EffectiveConfig(EffectiveConfig(config)) == EffectiveConfig(config));
    MoveResettableFields(&config);
    const SimConfig effective = EffectiveConfig(config);
    EXPECT_TRUE(EffectiveConfig(effective) == effective);
    if (IsLogFlash(config)) {
      SimConfig flash_fields = config;
      const SimConfig defaults;
      flash_fields.spin_down_after_us = defaults.spin_down_after_us;
      flash_fields.spin_down_policy = defaults.spin_down_policy;
      flash_fields.use_disk_geometry = defaults.use_disk_geometry;
      EXPECT_TRUE(effective == flash_fields);
    }
  }
}

TEST(EffectiveConfigTest, KeepsFlashDiskUtilizationAndFtlColumns) {
  for (SimConfig config : EveryDeviceConfig()) {
    SCOPED_TRACE(config.device.name);
    MoveResettableFields(&config);
    const SimConfig effective = EffectiveConfig(config);
    const SimConfig defaults;
    if (config.device.kind == DeviceKind::kFlashDisk) {
      EXPECT_EQ(effective.flash_utilization, 0.5);
      EXPECT_EQ(effective.flash_async_erasure, false);
    } else if (config.device.kind == DeviceKind::kMagneticDisk) {
      EXPECT_EQ(effective.flash_utilization, defaults.flash_utilization);
    }
    // Only a magnetic disk keeps its spindle fields.
    const bool disk = config.device.kind == DeviceKind::kMagneticDisk;
    EXPECT_EQ(effective.spin_down_after_us,
              disk ? 2 * kUsPerSec : defaults.spin_down_after_us);
    EXPECT_EQ(effective.spin_down_policy,
              disk ? SpinDownPolicy::kAdaptive : defaults.spin_down_policy);
    EXPECT_EQ(effective.use_disk_geometry, disk);
    // A reset never changes the run's column groups.
    EXPECT_TRUE(ColumnGroupsOf(effective) == ColumnGroupsOf(config));
    EXPECT_TRUE(ColumnGroupsOf(effective).Has(ColumnGroup::kFtl));
  }
  SimConfig plain = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
  EXPECT_FALSE(ColumnGroupsOf(EffectiveConfig(plain)).Has(ColumnGroup::kFtl));
  plain.cleaning_policy = CleaningPolicy::kCostBenefit;
  EXPECT_FALSE(ColumnGroupsOf(EffectiveConfig(plain)).Has(ColumnGroup::kFtl));
}

// The adaptive spin-down policy runs on the geometry timing as on the
// average-cost one: on the same trace it moves the rows off the fixed
// threshold's.
TEST(DiskTimingTest, AdaptiveSpinDownMovesTheRowsOnBothTimings) {
  const TraceView trace = BlockMapper::Map(GenerateNamedWorkload("mac", 0.1));
  for (const bool geometry : {false, true}) {
    SCOPED_TRACE(geometry ? "geometry" : "average-cost");
    SimConfig fixed = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
    fixed.use_disk_geometry = geometry;
    fixed.spin_down_after_us = kUsPerSec;
    SimConfig adaptive = fixed;
    adaptive.spin_down_policy = SpinDownPolicy::kAdaptive;
    const SimResult fixed_result = RunSimulation(trace, fixed);
    const SimResult adaptive_result = RunSimulation(trace, adaptive);
    EXPECT_NE(fixed_result.counters.spinups, adaptive_result.counters.spinups);
    EXPECT_NE(RowToJson(ResultToRow(fixed_result)), RowToJson(ResultToRow(adaptive_result)));
  }
}

}  // namespace
}  // namespace mobisim
