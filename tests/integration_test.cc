// Cross-module integration: full pipelines from workload generation or
// import, through lowering (naive or FAT), to simulation on each device
// class.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/fs/fat_file_system.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/trace/external_formats.h"
#include "src/trace/trace_io.h"

namespace mobisim {
namespace {

TEST(IntegrationTest, FatLoweredTraceSimulates) {
  const Trace trace = GenerateNamedWorkload("synth", 0.1);
  FatConfig fat_config;
  fat_config.block_bytes = trace.block_bytes;
  fat_config.capacity_bytes = 32ull * 1024 * 1024;
  fat_config.dir_entries = 1024;
  FatFileSystem fat(fat_config);
  const TraceView blocks = fat.Lower(trace);
  ASSERT_GT(blocks.size(), trace.records.size());  // metadata added

  for (const DeviceSpec& spec : {Cu140Datasheet(), IntelCardDatasheet()}) {
    SimConfig config = MakePaperConfig(spec, 1024 * 1024);
    const SimResult result = RunSimulation(blocks, config);
    EXPECT_GT(result.total_energy_j(), 0.0) << spec.name;
    EXPECT_GT(result.overall_response_ms.count(), 0u) << spec.name;
  }
}

TEST(IntegrationTest, ImportedHplTraceSimulates) {
  std::ostringstream raw;
  // A burst of requests followed by silence, repeated.
  double t = 0.0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 10; ++i) {
      raw << t << " 0 " << (burst * 100 + i) * 1024 << " 2048 "
          << (i % 2 == 0 ? "R" : "W") << "\n";
      t += 0.4;
    }
    t += 30.0;
  }
  std::istringstream in(raw.str());
  const auto blocks = ImportHplTrace(in, HplImportOptions{});
  ASSERT_TRUE(blocks.has_value());

  SimConfig config = MakePaperConfig(Cu140Datasheet(), 0);
  const SimResult result = RunSimulation(*blocks, config);
  EXPECT_GT(result.counters.spinups, 5u);  // idle gaps spin the disk down
  EXPECT_GT(result.total_energy_j(), 0.0);
}

TEST(IntegrationTest, TraceFileRoundTripPreservesSimulation) {
  const Trace trace = GenerateNamedWorkload("synth", 0.05);
  std::stringstream file;
  WriteTrace(trace, file);
  const auto loaded = ReadTrace(file);
  ASSERT_TRUE(loaded.has_value());

  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 1024 * 1024);
  const SimResult direct = RunSimulation(BlockMapper::Map(trace), config);
  const SimResult via_file = RunSimulation(BlockMapper::Map(*loaded), config);
  EXPECT_DOUBLE_EQ(direct.total_energy_j(), via_file.total_energy_j());
  EXPECT_DOUBLE_EQ(direct.write_response_ms.mean(), via_file.write_response_ms.mean());
}

TEST(IntegrationTest, GeometryAndAverageModelsAgreeOnEnergyScale) {
  const Trace trace = GenerateNamedWorkload("synth", 0.1);
  const TraceView blocks = BlockMapper::Map(trace);
  SimConfig average = MakePaperConfig(Cu140Datasheet(), 1024 * 1024);
  SimConfig geometry = average;
  geometry.use_disk_geometry = true;
  const SimResult a = RunSimulation(blocks, average);
  const SimResult g = RunSimulation(blocks, geometry);
  // Same spin-state machinery: energies within 25% of each other.
  EXPECT_NEAR(g.total_energy_j() / a.total_energy_j(), 1.0, 0.25);
}

TEST(IntegrationTest, AllWorkloadsAllPoliciesSmoke) {
  for (const char* workload : {"mac", "dos"}) {
    for (const CleaningPolicy policy :
         {CleaningPolicy::kGreedy, CleaningPolicy::kCostBenefit, CleaningPolicy::kWearAware}) {
      SimConfig config = MakePaperConfig(IntelCardDatasheet(), 1024 * 1024);
      config.cleaning_policy = policy;
      config.separate_cleaning_segment = policy == CleaningPolicy::kCostBenefit;
      const SimResult result = RunNamedWorkload(workload, config, 0.05);
      ASSERT_GT(result.total_energy_j(), 0.0)
          << workload << " " << CleaningPolicyName(policy);
    }
  }
}

}  // namespace
}  // namespace mobisim
