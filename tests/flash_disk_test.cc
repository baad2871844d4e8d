// Unit tests for the flash disk emulator (SunDisk SDP family), including the
// SDP5A decoupled-erasure pool.
#include <gtest/gtest.h>

#include "src/device/device_catalog.h"
#include "src/device/flash_disk.h"

namespace mobisim {
namespace {

DeviceSpec TestFlashDisk() {
  DeviceSpec s;
  s.name = "test-flash-disk";
  s.kind = DeviceKind::kFlashDisk;
  s.read_overhead_ms = 1.0;
  s.write_overhead_ms = 1.0;
  s.sequential_overhead_ms = 1.0;
  s.read_kbps = 1024.0;
  s.write_kbps = 64.0;  // coupled erase+write
  s.erase_segment_bytes = 512;
  s.read_w = 0.5;
  s.write_w = 0.5;
  s.erase_w = 0.5;
  s.idle_w = 0.01;
  return s;
}

DeviceSpec TestAsyncFlashDisk() {
  DeviceSpec s = TestFlashDisk();
  s.name = "test-flash-disk-async";
  s.erase_kbps = 128.0;
  s.pre_erased_write_kbps = 512.0;
  return s;
}

DeviceOptions TestOptions() {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 64 * 1024;  // 64 blocks
  return options;
}

BlockRecord Rec(SimTime t, OpType op, std::uint64_t lba, std::uint32_t count,
                std::uint32_t file = 1) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = op;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = file;
  return rec;
}

TEST(FlashDiskTest, ReadTiming) {
  FlashDisk disk(TestFlashDisk(), TestOptions());
  const SimTime response = disk.Read(0, Rec(0, OpType::kRead, 0, 1));
  EXPECT_EQ(response, UsFromMs(1) + kUsPerSec / 1024);
}

TEST(FlashDiskTest, CoupledWriteTiming) {
  FlashDisk disk(TestFlashDisk(), TestOptions());
  // 1 KB at 64 KB/s = 15.625 ms, plus 1 ms overhead.
  const SimTime response = disk.Write(0, Rec(0, OpType::kWrite, 0, 1));
  EXPECT_EQ(response, UsFromMs(1) + TransferTimeUs(1024, 64.0));
}

TEST(FlashDiskTest, UtilizationDoesNotAffectWrites) {
  // The paper's key point: no intra-device copying, so a nearly-full flash
  // disk writes exactly as fast as an empty one.
  FlashDisk empty(TestFlashDisk(), TestOptions());
  FlashDisk full(TestFlashDisk(), TestOptions());
  full.Preload(60, 0.5, /*interleave=*/false);
  const SimTime r_empty = empty.Write(0, Rec(0, OpType::kWrite, 0, 4));
  const SimTime r_full = full.Write(0, Rec(0, OpType::kWrite, 0, 4));
  EXPECT_EQ(r_empty, r_full);
}

TEST(FlashDiskTest, AsyncWritesFastWhenPoolCovers) {
  FlashDisk disk(TestAsyncFlashDisk(), TestOptions());
  ASSERT_TRUE(disk.asynchronous_erasure());
  // Fresh card: everything pre-erased, so writes run at 512 KB/s.
  const SimTime response = disk.Write(0, Rec(0, OpType::kWrite, 0, 4));
  EXPECT_EQ(response, UsFromMs(1) + TransferTimeUs(4096, 512.0));
  EXPECT_EQ(disk.counters().write_stalls, 0u);
}

TEST(FlashDiskTest, AsyncFallsBackWhenPoolEmpty) {
  DeviceOptions options = TestOptions();
  FlashDisk disk(TestAsyncFlashDisk(), options);
  disk.Preload(64, 0.5, /*interleave=*/false);  // whole device live: zero pre-erased
  EXPECT_EQ(disk.pre_erased_bytes(), 0u);
  const SimTime response = disk.Write(0, Rec(0, OpType::kWrite, 0, 1));
  const double coupled_kbps = 1.0 / (1.0 / 128.0 + 1.0 / 512.0);
  EXPECT_EQ(response, UsFromMs(1) + TransferTimeUs(1024, coupled_kbps));
  EXPECT_EQ(disk.counters().write_stalls, 1u);
}

TEST(FlashDiskTest, BackgroundErasureReplenishesPool) {
  FlashDisk disk(TestAsyncFlashDisk(), TestOptions());
  disk.Preload(56, 0.5, /*interleave=*/false);  // 8 blocks pre-erased
  // Overwrite 8 blocks: the new copies land in the pool, the old copies
  // become dirty.
  disk.Write(0, Rec(0, OpType::kWrite, 0, 8));
  EXPECT_GT(disk.dirty_bytes(), 0u);
  const std::uint64_t dirty = disk.dirty_bytes();
  // Idle long enough to erase everything: dirty -> pre-erased.
  disk.AdvanceTo(60 * kUsPerSec);
  EXPECT_EQ(disk.dirty_bytes(), 0u);
  EXPECT_EQ(disk.pre_erased_bytes(), dirty);
  // The next overwrite of that size is fast again.
  const SimTime response = disk.Write(60 * kUsPerSec,
                                      Rec(60 * kUsPerSec, OpType::kWrite, 0, 8));
  EXPECT_EQ(response, UsFromMs(1) + TransferTimeUs(8 * 1024, 512.0));
}

TEST(FlashDiskTest, SyncModeOnDecoupledPartUsesCoupledRate) {
  DeviceOptions options = TestOptions();
  options.asynchronous_erasure = false;
  FlashDisk disk(TestAsyncFlashDisk(), options);
  ASSERT_FALSE(disk.asynchronous_erasure());
  const double coupled_kbps = 1.0 / (1.0 / 128.0 + 1.0 / 512.0);
  const SimTime response = disk.Write(0, Rec(0, OpType::kWrite, 0, 1));
  EXPECT_EQ(response, UsFromMs(1) + TransferTimeUs(1024, coupled_kbps));
}

TEST(FlashDiskTest, TrimFreesSpace) {
  FlashDisk disk(TestAsyncFlashDisk(), TestOptions());
  disk.Preload(64, 0.5, /*interleave=*/false);
  disk.Trim(0, Rec(0, OpType::kErase, 0, 16));
  EXPECT_EQ(disk.dirty_bytes(), 16u * 1024);
  disk.AdvanceTo(10 * 60 * kUsPerSec);
  EXPECT_EQ(disk.pre_erased_bytes(), 16u * 1024);
}

TEST(FlashDiskTest, EnergyAccountsActiveAndIdle) {
  DeviceSpec spec = TestFlashDisk();
  FlashDisk disk(spec, TestOptions());
  const SimTime response = disk.Write(0, Rec(0, OpType::kWrite, 0, 1));
  disk.Finish(10 * kUsPerSec);
  const double expected = 0.5 * SecFromUs(response) + 0.01 * (10.0 - SecFromUs(response));
  EXPECT_NEAR(disk.energy().total_joules(), expected, 1e-6);
}

TEST(FlashDiskTest, QueueingAppliesAcrossOps) {
  FlashDisk disk(TestFlashDisk(), TestOptions());
  const SimTime r1 = disk.Write(0, Rec(0, OpType::kWrite, 0, 1));
  const SimTime r2 = disk.Write(0, Rec(0, OpType::kWrite, 1, 1, 1));
  EXPECT_GT(r2, r1);
}

}  // namespace
}  // namespace mobisim
