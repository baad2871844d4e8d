// Parameterized property sweep: every catalog device x every workload must
// satisfy the simulator's global invariants.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"

namespace mobisim {
namespace {

using Param = std::tuple<DeviceSpec, std::string>;

class DeviceWorkloadPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(DeviceWorkloadPropertyTest, GlobalInvariantsHold) {
  const auto& [device, workload] = GetParam();
  SimConfig config = MakePaperConfig(device, 2 * 1024 * 1024);
  const SimResult result = RunNamedWorkload(workload, config, /*scale=*/0.1);

  // Energy is positive and split into non-negative components.
  EXPECT_GT(result.total_energy_j(), 0.0);
  EXPECT_GE(result.device_energy_j, 0.0);
  EXPECT_GE(result.dram_energy_j, 0.0);
  EXPECT_GE(result.sram_energy_j, 0.0);

  // Response-time sanity.
  for (const RunningStats* stats :
       {&result.read_response_ms, &result.write_response_ms, &result.overall_response_ms}) {
    EXPECT_GE(stats->min(), 0.0);
    EXPECT_GE(stats->max(), stats->mean());
    EXPECT_GE(stats->mean(), 0.0);
  }
  EXPECT_EQ(result.read_response_ms.count() + result.write_response_ms.count(),
            result.overall_response_ms.count());
  EXPECT_GT(result.overall_response_ms.count(), 0u);

  // Counters are consistent with the workload.
  EXPECT_GT(result.counters.reads + result.counters.writes, 0u);
  EXPECT_GE(result.counters.stall_time_us, 0);
  if (result.counters.blocks_copied > 0) {
    EXPECT_GT(result.counters.clean_jobs, 0u);  // copies imply cleaning ran
  }

  // Post-warm duration never exceeds the full span.
  EXPECT_GT(result.duration_sec, 0.0);
  EXPECT_EQ(result.workload, workload);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeviceWorkloadPropertyTest,
    ::testing::Combine(::testing::ValuesIn(AllDeviceSpecs()),
                       ::testing::Values("mac", "dos", "hp", "synth")),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param).name + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// Spin-down threshold monotonicity: a disk that never spins down uses the
// most energy; an aggressive threshold uses less than "never" on every trace.
class SpinDownPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SpinDownPropertyTest, SpinningForeverCostsMost) {
  SimConfig config = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
  SimConfig never = config;
  never.spin_down_after_us = UsFromSec(1e9);
  const double with_pm = RunNamedWorkload(GetParam(), config, 0.1).total_energy_j();
  const double without_pm = RunNamedWorkload(GetParam(), never, 0.1).total_energy_j();
  if (GetParam() == "hp") {
    // Idle-heavy trace: power management must win decisively.
    EXPECT_LT(with_pm, 0.5 * without_pm);
  } else {
    // Busy traces can lose a little to spin-up energy; they must not lose
    // much.
    EXPECT_LT(with_pm, 1.10 * without_pm);
  }
}

INSTANTIATE_TEST_SUITE_P(Traces, SpinDownPropertyTest,
                         ::testing::Values("mac", "dos", "hp"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace mobisim
