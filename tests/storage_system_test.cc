// Integration tests for the composed hierarchy: DRAM cache -> SRAM write
// buffer -> device, including the deferred spin-up policy.
#include <gtest/gtest.h>

#include "src/core/storage_system.h"
#include "src/device/device_catalog.h"

namespace mobisim {
namespace {

constexpr std::uint32_t kBlock = 1024;

SimConfig DiskConfig(std::uint64_t dram, std::uint64_t sram) {
  SimConfig config;
  config.device = Cu140Datasheet();
  config.dram_bytes = dram;
  config.sram_bytes = sram;
  return config;
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

TEST(StorageSystemTest, DramHitIsFast) {
  StorageSystem system(DiskConfig(1024 * 1024, 0), /*trace_blocks=*/100, kBlock);
  const SimTime miss = system.Handle(Rec(0, OpType::kRead, 0, 2));
  EXPECT_GT(miss, UsFromMs(20));  // went to the disk
  const SimTime hit = system.Handle(Rec(kUsPerSec, OpType::kRead, 0, 2));
  EXPECT_LT(hit, UsFromMs(1));  // served from DRAM
  EXPECT_EQ(system.dram().hits(), 1u);
  EXPECT_EQ(system.dram().misses(), 1u);
}

TEST(StorageSystemTest, ZeroDramAlwaysGoesToDevice) {
  StorageSystem system(DiskConfig(0, 0), 100, kBlock);
  system.Handle(Rec(0, OpType::kRead, 0, 2));
  const SimTime again = system.Handle(Rec(kUsPerSec, OpType::kRead, 0, 2, 2));
  EXPECT_GT(again, UsFromMs(20));
}

TEST(StorageSystemTest, WriteAllocatesInDram) {
  StorageSystem system(DiskConfig(1024 * 1024, 0), 100, kBlock);
  system.Handle(Rec(0, OpType::kWrite, 5, 2));
  const SimTime hit = system.Handle(Rec(kUsPerSec, OpType::kRead, 5, 2));
  EXPECT_LT(hit, UsFromMs(1));
}

TEST(StorageSystemTest, SramAbsorbsWritesWhileDiskSleeps) {
  StorageSystem system(DiskConfig(0, 32 * 1024), 100, kBlock);
  // Let the disk spin down (threshold 5 s, never used yet -> asleep at 10 s).
  const SimTime t = 10 * kUsPerSec;
  const SimTime response = system.Handle(Rec(t, OpType::kWrite, 0, 2));
  EXPECT_LT(response, UsFromMs(1));            // SRAM speed, no spin-up
  EXPECT_EQ(system.device().counters().spinups, 0u);
  EXPECT_GT(system.sram().dirty_blocks(), 0u);  // still buffered
}

TEST(StorageSystemTest, WithoutSramWritesWakeTheDisk) {
  StorageSystem system(DiskConfig(0, 0), 100, kBlock);
  const SimTime t = 10 * kUsPerSec;
  const SimTime response = system.Handle(Rec(t, OpType::kWrite, 0, 2));
  EXPECT_GT(response, UsFromMs(1000));  // spin-up on the critical path
  EXPECT_EQ(system.device().counters().spinups, 1u);
}

TEST(StorageSystemTest, SramFullForcesFlushStall) {
  StorageSystem system(DiskConfig(0, 4 * 1024), 100, kBlock);  // 4-block buffer
  const SimTime t = 10 * kUsPerSec;  // disk asleep
  system.Handle(Rec(t, OpType::kWrite, 0, 4));
  // Buffer now full; the next write must wait for a flush (spin-up + write).
  const SimTime response = system.Handle(Rec(t + kUsPerSec, OpType::kWrite, 10, 2));
  EXPECT_GT(response, UsFromMs(1000));
  EXPECT_EQ(system.device().counters().spinups, 1u);
  // The new write lands in the buffer and is immediately drained behind the
  // scenes (the disk is spinning after the flush).
  EXPECT_EQ(system.sram().dirty_blocks(), 0u);
  EXPECT_GE(system.device().counters().writes, 2u);
}

TEST(StorageSystemTest, ReadsAreServedFromSram) {
  StorageSystem system(DiskConfig(0, 32 * 1024), 100, kBlock);
  const SimTime t = 10 * kUsPerSec;
  system.Handle(Rec(t, OpType::kWrite, 7, 2));
  const SimTime response = system.Handle(Rec(t + kUsPerSec, OpType::kRead, 7, 2));
  EXPECT_LT(response, UsFromMs(1));  // no disk access
  EXPECT_EQ(system.device().counters().reads, 0u);
}

TEST(StorageSystemTest, PartialSramOverlapFlushesBeforeRead) {
  StorageSystem system(DiskConfig(0, 32 * 1024), 100, kBlock);
  const SimTime t = 10 * kUsPerSec;
  system.Handle(Rec(t, OpType::kWrite, 7, 1));
  // Read spans the buffered block and one that is not buffered: the system
  // must flush first so the device holds current data, then read.
  const SimTime response = system.Handle(Rec(t + kUsPerSec, OpType::kRead, 7, 2));
  EXPECT_GT(response, UsFromMs(1000));  // spin-up + flush + read
  EXPECT_EQ(system.sram().dirty_blocks(), 0u);
  EXPECT_GE(system.device().counters().writes, 1u);
  EXPECT_EQ(system.device().counters().reads, 1u);
}

TEST(StorageSystemTest, WriteBehindDrainsWhileSpinning) {
  StorageSystem system(DiskConfig(0, 32 * 1024), 100, kBlock);
  // Wake the disk with a read, then write: the write should be absorbed AND
  // drained in the background because the disk is spinning anyway.
  system.Handle(Rec(0, OpType::kRead, 50, 1));
  const SimTime t = kUsPerSec;
  const SimTime response = system.Handle(Rec(t, OpType::kWrite, 0, 2));
  EXPECT_LT(response, UsFromMs(1));
  EXPECT_EQ(system.sram().dirty_blocks(), 0u);  // drained behind the scenes
  EXPECT_GE(system.device().counters().writes, 1u);
}

TEST(StorageSystemTest, EraseInvalidatesEverywhere) {
  StorageSystem system(DiskConfig(1024 * 1024, 32 * 1024), 100, kBlock);
  const SimTime t = 10 * kUsPerSec;
  system.Handle(Rec(t, OpType::kWrite, 0, 4));
  system.Handle(Rec(t + 1000, OpType::kErase, 0, 4));
  EXPECT_EQ(system.sram().dirty_blocks(), 0u);
  // A subsequent read misses DRAM (invalidated) and goes to the device.
  const SimTime response = system.Handle(Rec(t + kUsPerSec, OpType::kRead, 0, 4));
  EXPECT_GT(response, UsFromMs(20));
}

TEST(StorageSystemTest, FinishDrainsLeftoverWrites) {
  StorageSystem system(DiskConfig(0, 32 * 1024), 100, kBlock);
  const SimTime t = 10 * kUsPerSec;
  system.Handle(Rec(t, OpType::kWrite, 0, 4));
  EXPECT_GT(system.sram().dirty_blocks(), 0u);
  system.Finish(t + kUsPerSec);
  EXPECT_EQ(system.sram().dirty_blocks(), 0u);
  EXPECT_GE(system.device().counters().writes, 1u);
}

TEST(StorageSystemTest, FlashPreloadedToUtilization) {
  SimConfig config;
  config.device = IntelCardDatasheet();
  config.dram_bytes = 0;
  config.flash_utilization = 0.80;
  StorageSystem system(config, /*trace_blocks=*/1000, kBlock);
  // Writes to preloaded blocks are overwrites (no live growth).
  system.Handle(Rec(0, OpType::kWrite, 0, 4));
  EXPECT_GT(system.device().counters().writes, 0u);
}

TEST(StorageSystemTest, WriteBackPlusSramPrefersCache) {
  // With both write-back DRAM and SRAM configured, writes settle in DRAM and
  // the SRAM path is bypassed entirely.
  SimConfig config = DiskConfig(1024 * 1024, 32 * 1024);
  config.write_back_cache = true;
  StorageSystem system(config, 100, kBlock);
  const SimTime t = 10 * kUsPerSec;  // disk asleep
  const SimTime response = system.Handle(Rec(t, OpType::kWrite, 0, 2));
  EXPECT_LT(response, UsFromMs(1));
  EXPECT_EQ(system.sram().dirty_blocks(), 0u);
  EXPECT_EQ(system.dram().dirty_blocks(), 2u);
  EXPECT_EQ(system.device().counters().spinups, 0u);
}

TEST(StorageSystemTest, WriteBackSyncFlushesOnSchedule) {
  SimConfig config = DiskConfig(1024 * 1024, 0);
  config.write_back_cache = true;
  config.cache_sync_interval_us = 5 * kUsPerSec;
  StorageSystem system(config, 100, kBlock);
  system.Handle(Rec(0, OpType::kWrite, 0, 2));
  EXPECT_EQ(system.dram().dirty_blocks(), 2u);
  // The next operation past the sync deadline triggers the flush.
  system.Handle(Rec(20 * kUsPerSec, OpType::kRead, 50, 1));
  EXPECT_EQ(system.dram().dirty_blocks(), 0u);
  EXPECT_GE(system.device().counters().writes, 1u);
}

TEST(StorageSystemTest, GeometryModelIntegrates) {
  SimConfig config = DiskConfig(1024 * 1024, 32 * 1024);
  config.use_disk_geometry = true;
  StorageSystem system(config, 100, kBlock);
  const SimTime read = system.Handle(Rec(0, OpType::kRead, 0, 2));
  EXPECT_GT(read, UsFromMs(1));
  // Deferred spin-up works through the geometry model too.
  const SimTime t = 20 * kUsPerSec;
  const SimTime write = system.Handle(Rec(t, OpType::kWrite, 10, 2));
  EXPECT_LT(write, UsFromMs(1));
  EXPECT_EQ(system.device().counters().spinups, 0u);
}

TEST(StorageSystemTest, OversizedWriteBypassesSram) {
  // A write larger than the whole SRAM goes straight to the device.
  StorageSystem system(DiskConfig(0, 4 * 1024), 100, kBlock);
  const SimTime response = system.Handle(Rec(0, OpType::kRead, 50, 1));
  (void)response;
  const SimTime write = system.Handle(Rec(kUsPerSec, OpType::kWrite, 0, 8));
  EXPECT_GT(write, UsFromMs(10));  // disk service, not SRAM
  EXPECT_EQ(system.sram().dirty_blocks(), 0u);
}

TEST(StorageSystemTest, RequiredCapacityCoversTraceAtUtilization) {
  const std::uint64_t cap = RequiredCapacityBytes(10 * 1024 * 1024, 0.8, 128 * 1024);
  EXPECT_GE(static_cast<double>(cap) * 0.8, 10.0 * 1024 * 1024);
  EXPECT_EQ(cap % (128 * 1024), 0u);
}

}  // namespace
}  // namespace mobisim
