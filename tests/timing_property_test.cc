// Timing and accounting properties that must hold for every device model
// under randomized traffic: monotonic completion times, energy bounded by
// wall-clock x peak power, counter/byte consistency, and busy-time sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/device/device_catalog.h"
#include "src/device/storage_device.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

// One catalog spec, built through CreateDevice and the virtual preload; every
// catalog disk joins a second time on its geometry timing.
struct DeviceMaker {
  std::string name;
  DeviceSpec spec;
  bool geometry = false;
};

void PrintTo(const DeviceMaker& maker, std::ostream* os) { *os << maker.name; }

std::vector<DeviceMaker> AllMakers() {
  std::vector<DeviceMaker> makers;
  for (const DeviceSpec& spec : AllDeviceSpecs()) {
    makers.push_back({spec.name, spec});
  }
  for (const DeviceSpec& spec : AllDeviceSpecs()) {
    if (spec.kind == DeviceKind::kMagneticDisk) {
      makers.push_back({spec.name + "-geometry", spec, /*geometry=*/true});
    }
  }
  return makers;
}

std::unique_ptr<StorageDevice> Make(const DeviceMaker& maker) {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 4 * 1024 * 1024;
  options.geometry_timing = maker.geometry;
  std::unique_ptr<StorageDevice> device = CreateDevice(maker.spec, options);
  device->Preload(1024, 0.7, /*interleave=*/true);
  return device;
}

// Single-queue devices complete requests in issue order.  The striped NAND
// SSD does not: a short read on a free plane may legitimately finish before
// an earlier multi-page write still programming on other planes.
bool FifoCompletions(const DeviceMaker& maker) {
  return maker.spec.kind != DeviceKind::kNandSsd;
}

class DeviceTimingPropertyTest : public ::testing::TestWithParam<DeviceMaker> {};

TEST_P(DeviceTimingPropertyTest, RandomTrafficInvariants) {
  auto device = Make(GetParam());
  Rng rng(17);
  SimTime now = 0;
  SimTime last_completion = 0;

  for (int i = 0; i < 1500; ++i) {
    now += static_cast<SimTime>(rng.Exponential(200000.0));  // ~0.2-s mean gaps
    BlockRecord rec;
    rec.time_us = now;
    rec.lba = static_cast<std::uint64_t>(rng.UniformInt(0, 1000));
    rec.block_count = static_cast<std::uint32_t>(rng.UniformInt(1, 8));
    rec.lba = std::min<std::uint64_t>(rec.lba, 1024 - rec.block_count);
    rec.file_id = static_cast<std::uint32_t>(rng.UniformInt(0, 40));
    const bool is_read = rng.Chance(0.5);
    rec.op = is_read ? OpType::kRead : OpType::kWrite;

    const SimTime response =
        is_read ? device->Read(now, rec) : device->Write(now, rec);
    ASSERT_GT(response, 0) << GetParam().name << " op " << i;

    // Completions never go backwards (on in-order devices), and busy_until
    // covers this op.
    const SimTime completion = now + response;
    if (FifoCompletions(GetParam())) {
      ASSERT_GE(completion, last_completion) << GetParam().name << " op " << i;
    }
    ASSERT_GE(device->busy_until(), completion - response) << GetParam().name;
    last_completion = completion;
  }

  device->Finish(std::max(now, device->busy_until()));

  // Energy is bounded by wall-clock times the highest mode power.
  const DeviceSpec& spec = device->spec();
  const double peak_w = std::max({spec.read_w, spec.write_w, spec.erase_w, spec.idle_w,
                                  spec.spinup_w, spec.sleep_w});
  const double wall_sec = SecFromUs(device->busy_until());
  EXPECT_LE(device->energy().total_joules(), peak_w * wall_sec * 1.01) << GetParam().name;
  EXPECT_GT(device->energy().total_joules(), 0.0);

  // Counters add up.
  const DeviceCounters& counters = device->counters();
  EXPECT_GT(counters.reads, 0u);
  EXPECT_GT(counters.writes, 0u);
  EXPECT_EQ(counters.reads + counters.writes, 1500u);
  EXPECT_GE(counters.bytes_read, counters.reads * 1024u);
  EXPECT_GE(counters.bytes_written, counters.writes * 1024u);
}

TEST_P(DeviceTimingPropertyTest, BackToBackRequestsQueueFifo) {
  auto device = Make(GetParam());
  BlockRecord rec;
  rec.block_count = 4;
  rec.lba = 0;
  rec.file_id = 1;
  rec.op = OpType::kWrite;
  // Three writes at the same instant: responses strictly increase.
  SimTime prev = 0;
  for (int i = 0; i < 3; ++i) {
    rec.time_us = 1000;
    const SimTime response = device->Write(1000, rec);
    ASSERT_GT(response, prev);
    prev = response;
  }
}

TEST_P(DeviceTimingPropertyTest, AdvanceToIsIdempotent) {
  auto device = Make(GetParam());
  BlockRecord rec;
  rec.time_us = 0;
  rec.lba = 0;
  rec.block_count = 1;
  rec.file_id = 1;
  rec.op = OpType::kWrite;
  device->Write(0, rec);
  device->AdvanceTo(10 * kUsPerSec);
  const double energy_once = device->energy().total_joules();
  device->AdvanceTo(10 * kUsPerSec);
  device->AdvanceTo(9 * kUsPerSec);  // going backwards must be a no-op
  EXPECT_DOUBLE_EQ(device->energy().total_joules(), energy_once) << GetParam().name;
}

TEST_P(DeviceTimingPropertyTest, FinishBeforeBusyUntilStillAccountsInFlightWork) {
  // Finish(end) with end earlier than busy_until must account up to
  // busy_until, not truncate the in-flight operation's energy.
  auto device = Make(GetParam());
  BlockRecord rec;
  rec.time_us = 1000;
  rec.lba = 0;
  rec.block_count = 8;
  rec.file_id = 1;
  rec.op = OpType::kWrite;
  device->Write(1000, rec);
  const SimTime busy = device->busy_until();
  ASSERT_GT(busy, 1000);

  device->Finish(1000);  // earlier than the op's completion
  const double joules = device->energy().total_joules();
  EXPECT_GT(joules, 0.0) << GetParam().name;
  // Everything up to busy_until is already accounted: re-accounting to the
  // same instant must add nothing.
  device->AdvanceTo(busy);
  EXPECT_DOUBLE_EQ(device->energy().total_joules(), joules) << GetParam().name;
  device->Finish(busy);
  EXPECT_DOUBLE_EQ(device->energy().total_joules(), joules) << GetParam().name;
}

TEST_P(DeviceTimingPropertyTest, PowerLossTruncatesPendingWorkOnEveryKind) {
  auto device = Make(GetParam());
  BlockRecord rec;
  rec.time_us = 1000;
  rec.lba = 0;
  rec.block_count = 8;
  rec.file_id = 1;
  rec.op = OpType::kWrite;
  device->Write(1000, rec);
  ASSERT_GT(device->busy_until(), 1100);

  const SimTime recovery = device->PowerLoss(1100);
  const double joules_before = device->energy().total_joules();

  // The abandoned operation is truncated at the loss instant on every kind:
  // the device is busy for exactly the recovery work (zero on disks and
  // block-interface flash, a mount scan on log-structured flash) and the
  // in-flight remainder never reappears.
  EXPECT_GE(recovery, 0) << GetParam().name;
  EXPECT_EQ(device->busy_until(), 1100 + recovery) << GetParam().name;

  // The device keeps working afterwards, and accounting never regresses.
  rec.time_us = 10 * kUsPerSec;
  const SimTime response = device->Write(10 * kUsPerSec, rec);
  EXPECT_GT(response, 0) << GetParam().name;
  device->Finish(device->busy_until());
  EXPECT_GE(device->energy().total_joules(), joules_before) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Devices, DeviceTimingPropertyTest, ::testing::ValuesIn(AllMakers()),
    [](const ::testing::TestParamInfo<DeviceMaker>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace mobisim
