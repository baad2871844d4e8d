// Unit tests for the magnetic-disk model on average-cost timing: spin-state
// machine, seek policy, queueing and exact energy accounting.  The geometry
// timing of the same class is tested in geometric_disk_test.cc.
#include <gtest/gtest.h>

#include "src/device/device_catalog.h"
#include "src/device/magnetic_disk.h"

namespace mobisim {
namespace {

// A disk with round numbers so expectations are exact: 10-ms random
// overhead, 2-ms same-file overhead, 1024 KB/s both ways, 1-s spin-up.
DeviceSpec TestDisk() {
  DeviceSpec s;
  s.name = "test-disk";
  s.kind = DeviceKind::kMagneticDisk;
  s.read_overhead_ms = 10.0;
  s.write_overhead_ms = 10.0;
  s.sequential_overhead_ms = 2.0;
  s.read_kbps = 1024.0;
  s.write_kbps = 1024.0;
  s.spinup_ms = 1000.0;
  s.read_w = 2.0;
  s.write_w = 2.0;
  s.idle_w = 1.0;
  s.sleep_w = 0.1;
  s.spinup_w = 4.0;
  return s;
}

DeviceOptions TestOptions() {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.spin_down_after_us = 5 * kUsPerSec;
  return options;
}

BlockRecord Rec(SimTime t, std::uint64_t lba, std::uint32_t count, std::uint32_t file) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = OpType::kRead;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = file;
  return rec;
}

// One 1-Kbyte block at 1024 KB/s is 1/1024 s.
constexpr SimTime kBlockUs = kUsPerSec / 1024;

TEST(MagneticDiskTest, FirstReadWhileSpinning) {
  MagneticDisk disk(TestDisk(), TestOptions());
  const SimTime response = disk.Read(0, Rec(0, 0, 1, 1));
  EXPECT_EQ(response, UsFromMs(10) + kBlockUs);
  EXPECT_EQ(disk.counters().reads, 1u);
  EXPECT_EQ(disk.counters().spinups, 0u);
}

TEST(MagneticDiskTest, SameFileSkipsSeek) {
  MagneticDisk disk(TestDisk(), TestOptions());
  disk.Read(0, Rec(0, 0, 1, 7));
  const SimTime t2 = 2 * kUsPerSec;
  const SimTime response = disk.Read(t2, Rec(t2, 100, 1, 7));
  EXPECT_EQ(response, UsFromMs(2) + kBlockUs);  // sequential overhead only
  // A different file pays the full seek again.
  const SimTime t3 = 3 * kUsPerSec;
  EXPECT_EQ(disk.Read(t3, Rec(t3, 0, 1, 8)), UsFromMs(10) + kBlockUs);
}

TEST(MagneticDiskTest, SpinsDownAfterThresholdAndPaysSpinup) {
  MagneticDisk disk(TestDisk(), TestOptions());
  disk.Read(0, Rec(0, 0, 1, 1));
  EXPECT_TRUE(disk.IsSpinningAt(4 * kUsPerSec));
  EXPECT_FALSE(disk.IsSpinningAt(6 * kUsPerSec));
  const SimTime t2 = 10 * kUsPerSec;
  const SimTime response = disk.Read(t2, Rec(t2, 0, 1, 1));
  // Spin-up + random overhead (head position lost) + transfer.
  EXPECT_EQ(response, UsFromMs(1000) + UsFromMs(10) + kBlockUs);
  EXPECT_EQ(disk.counters().spinups, 1u);
}

TEST(MagneticDiskTest, QueueingDelaysBackToBackRequests) {
  MagneticDisk disk(TestDisk(), TestOptions());
  const SimTime r1 = disk.Read(0, Rec(0, 0, 1, 1));
  // Second request arrives while the first is still in service.
  const SimTime r2 = disk.Read(0, Rec(0, 0, 1, 2));
  EXPECT_EQ(r2, r1 + UsFromMs(10) + kBlockUs);
}

TEST(MagneticDiskTest, IdleEnergyExact) {
  DeviceSpec spec = TestDisk();
  MagneticDisk disk(spec, TestOptions());
  // 10 s idle then finish: 5 s idle at 1 W + 5 s sleep at 0.1 W.
  disk.Finish(10 * kUsPerSec);
  EXPECT_NEAR(disk.energy().total_joules(), 5.0 * 1.0 + 5.0 * 0.1, 1e-6);
}

TEST(MagneticDiskTest, ActiveAndSpinupEnergyExact) {
  MagneticDisk disk(TestDisk(), TestOptions());
  disk.Read(0, Rec(0, 0, 1, 1));  // 10 ms + ~0.98 ms active at 2 W
  const double active_j = 2.0 * SecFromUs(UsFromMs(10) + kBlockUs);
  // Let it spin down, then wake it with a read at t = 100 s.
  const SimTime t2 = 100 * kUsPerSec;
  disk.Read(t2, Rec(t2, 0, 1, 1));
  disk.Finish(disk.busy_until());
  // Timeline: op1 active, 5 s idle, sleep until t2, 1-s spin-up, op2 active.
  const double op_sec = SecFromUs(UsFromMs(10) + kBlockUs);
  const double expected = 2.0 * active_j         // two active ops
                          + 4.0 * 1.0            // spin-up: 1 s at 4 W
                          + 1.0 * 5.0            // one 5-s idle window at 1 W
                          + 0.1 * (100.0 - op_sec - 5.0);
  EXPECT_NEAR(disk.energy().total_joules(), expected, 0.05);
}

TEST(MagneticDiskTest, WritesUseWritePowerAndCounters) {
  MagneticDisk disk(TestDisk(), TestOptions());
  BlockRecord rec = Rec(0, 0, 4, 1);
  rec.op = OpType::kWrite;
  disk.Write(0, rec);
  EXPECT_EQ(disk.counters().writes, 1u);
  EXPECT_EQ(disk.counters().bytes_written, 4096u);
  EXPECT_EQ(disk.counters().reads, 0u);
}

TEST(MagneticDiskTest, TrimIsFree) {
  MagneticDisk disk(TestDisk(), TestOptions());
  BlockRecord rec = Rec(0, 0, 4, 1);
  rec.op = OpType::kErase;
  disk.Trim(0, rec);
  EXPECT_EQ(disk.busy_until(), 0);
  EXPECT_EQ(disk.counters().writes, 0u);
}

TEST(MagneticDiskTest, AdaptiveThresholdGrowsAfterPrematureSleep) {
  DeviceOptions options = TestOptions();
  options.spin_down_policy = SpinDownPolicy::kAdaptive;
  options.spin_down_after_us = 2 * kUsPerSec;
  MagneticDisk disk(TestDisk(), options);
  EXPECT_EQ(disk.spin_down_threshold_us(), 2 * kUsPerSec);
  // Sleep for far less than break-even (spinup 4 J / (1 - 0.1) W ~ 4.4 s):
  // op at t=0, disk sleeps at 2 s, next op at 3 s -> 1-s sleep.
  disk.Read(0, Rec(0, 0, 1, 1));
  disk.Read(3 * kUsPerSec, Rec(3 * kUsPerSec, 0, 1, 1));
  EXPECT_EQ(disk.spin_down_threshold_us(), 4 * kUsPerSec);  // doubled
}

TEST(MagneticDiskTest, AdaptiveThresholdShrinksAfterLongSleep) {
  DeviceOptions options = TestOptions();
  options.spin_down_policy = SpinDownPolicy::kAdaptive;
  options.spin_down_after_us = 10 * kUsPerSec;
  MagneticDisk disk(TestDisk(), options);
  disk.Read(0, Rec(0, 0, 1, 1));
  // Next op after 10 minutes: the sleep was clearly worthwhile.
  const SimTime t2 = 600 * kUsPerSec;
  disk.Read(t2, Rec(t2, 0, 1, 1));
  EXPECT_EQ(disk.spin_down_threshold_us(), 9 * kUsPerSec);  // -10%
}

TEST(MagneticDiskTest, FixedPolicyNeverAdapts) {
  DeviceOptions options = TestOptions();
  MagneticDisk disk(TestDisk(), options);
  disk.Read(0, Rec(0, 0, 1, 1));
  disk.Read(6 * kUsPerSec, Rec(6 * kUsPerSec, 0, 1, 1));
  disk.Read(1000 * kUsPerSec, Rec(1000 * kUsPerSec, 0, 1, 1));
  EXPECT_EQ(disk.spin_down_threshold_us(), options.spin_down_after_us);
}

TEST(MagneticDiskTest, ZeroThresholdSleepsImmediately) {
  DeviceOptions options = TestOptions();
  options.spin_down_after_us = 0;
  MagneticDisk disk(TestDisk(), options);
  disk.Read(0, Rec(0, 0, 1, 1));
  EXPECT_FALSE(disk.IsSpinningAt(disk.busy_until() + 1));
  const SimTime t2 = kUsPerSec;
  const SimTime response = disk.Read(t2, Rec(t2, 0, 1, 1));
  EXPECT_EQ(response, UsFromMs(1000) + UsFromMs(10) + kBlockUs);
  EXPECT_EQ(disk.counters().spinups, 1u);
}

}  // namespace
}  // namespace mobisim
