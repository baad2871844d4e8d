// Unit and property tests for the flash memory card (LogFlashDevice with
// serial card timing): out-of-place writes, background/on-demand cleaning,
// utilization effects, stalls, endurance.
#include <gtest/gtest.h>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/device/log_flash_device.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

DeviceSpec TestCard() {
  DeviceSpec s;
  s.name = "test-card";
  s.kind = DeviceKind::kFlashCard;
  s.read_overhead_ms = 0.0;
  s.write_overhead_ms = 0.0;
  s.sequential_overhead_ms = 0.0;
  s.read_kbps = 8192.0;
  s.write_kbps = 256.0;
  s.erase_segment_bytes = 4 * 1024;  // 4 blocks per segment
  s.erase_ms_per_segment = 100.0;
  s.read_w = 0.5;
  s.write_w = 0.5;
  s.erase_w = 0.5;
  s.idle_w = 0.001;
  return s;
}

DeviceOptions TestOptions(bool background = true) {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 64 * 1024;  // 16 segments
  options.background_cleaning = background;
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

TEST(FlashCardTest, ReadAndWriteTiming) {
  LogFlashDevice card(TestCard(), TestOptions());
  EXPECT_EQ(card.Read(0, Rec(0, OpType::kRead, 0, 8)), TransferTimeUs(8192, 8192.0));
  const SimTime t2 = kUsPerSec;
  EXPECT_EQ(card.Write(t2, Rec(t2, OpType::kWrite, 0, 1)), TransferTimeUs(1024, 256.0));
}

TEST(FlashCardTest, PreloadReachesUtilization) {
  LogFlashDevice card(TestCard(), TestOptions());
  card.Preload(16, 0.5, /*interleave=*/true);
  EXPECT_NEAR(card.segments().utilization(), 0.5, 0.01);
  EXPECT_TRUE(card.segments().CheckInvariants());
  // All trace blocks mapped.
  for (std::uint64_t lba = 0; lba < 16; ++lba) {
    EXPECT_TRUE(card.segments().IsMapped(lba));
  }
}

TEST(FlashCardTest, BackgroundCleaningKeepsReserveDuringIdle) {
  LogFlashDevice card(TestCard(), TestOptions());
  card.Preload(16, 0.75, /*interleave=*/true);  // 48 of 64 blocks live
  // Overwrite steadily with generous idle time: cleaning happens in the
  // background, so writes never stall.
  SimTime now = 0;
  for (int i = 0; i < 200; ++i) {
    now += 2 * kUsPerSec;
    const SimTime response = card.Write(now, Rec(now, OpType::kWrite, i % 16, 1));
    EXPECT_LT(response, UsFromMs(20)) << "write " << i << " stalled";
  }
  EXPECT_GT(card.counters().clean_jobs, 0u);
  EXPECT_EQ(card.counters().write_stalls, 0u);
  EXPECT_TRUE(card.segments().CheckInvariants());
}

TEST(FlashCardTest, BurstWritesStallForCleaning) {
  LogFlashDevice card(TestCard(), TestOptions());
  card.Preload(16, 0.75, /*interleave=*/true);
  // A dense burst with no idle time must eventually wait for erasure.
  SimTime now = 0;
  SimTime worst = 0;
  for (int i = 0; i < 200; ++i) {
    const SimTime response = card.Write(now, Rec(now, OpType::kWrite, i % 16, 1));
    worst = std::max(worst, response);
    now += 100;  // 0.1 ms apart: far faster than the card can erase
  }
  EXPECT_GT(card.counters().write_stalls, 0u);
  EXPECT_GE(worst, UsFromMs(100));  // at least one erase on the critical path
  EXPECT_TRUE(card.segments().CheckInvariants());
}

TEST(FlashCardTest, OnDemandCleaningChargesWrites) {
  LogFlashDevice card(TestCard(), TestOptions(/*background=*/false));
  card.Preload(16, 0.75, /*interleave=*/true);
  SimTime now = 0;
  SimTime total_response = 0;
  for (int i = 0; i < 100; ++i) {
    now += 10 * kUsPerSec;  // plenty of idle that on-demand mode must not use
    total_response += card.Write(now, Rec(now, OpType::kWrite, i % 16, 1));
  }
  EXPECT_GT(card.counters().clean_jobs, 0u);
  // All cleaning time was charged to writes.
  EXPECT_GE(total_response, static_cast<SimTime>(card.counters().clean_jobs) * UsFromMs(100));
  EXPECT_TRUE(card.segments().CheckInvariants());
}

TEST(FlashCardTest, TrimReclaimsSpace) {
  LogFlashDevice card(TestCard(), TestOptions());
  card.Preload(16, 0.75, /*interleave=*/true);
  const std::uint64_t live_before = card.segments().live_blocks();
  card.Trim(0, Rec(0, OpType::kErase, 0, 8));
  EXPECT_EQ(card.segments().live_blocks(), live_before - 8);
}

TEST(FlashCardTest, EraseCountersTrackEndurance) {
  LogFlashDevice card(TestCard(), TestOptions());
  card.Preload(16, 0.75, /*interleave=*/true);
  SimTime now = 0;
  for (int i = 0; i < 300; ++i) {
    now += kUsPerSec;
    card.Write(now, Rec(now, OpType::kWrite, i % 16, 1));
  }
  const DeviceCounters& counters = card.counters();
  EXPECT_GT(counters.segment_erases, 0u);
  EXPECT_GT(counters.segment_erase_stats.max(), 0.0);
  EXPECT_EQ(counters.segment_erases,
            static_cast<std::uint64_t>(counters.segment_erase_stats.sum()));
}

TEST(FlashCardTest, HigherUtilizationCopiesMore) {
  // The paper's section 5.2 effect, at model scale: same traffic, higher
  // utilization => more copying and more erasures.
  auto run = [](double util) {
    DeviceOptions options = TestOptions();
    options.capacity_bytes = 256 * 1024;  // 64 segments
    LogFlashDevice card(TestCard(), options);
    card.Preload(64, util, /*interleave=*/true);
    SimTime now = 0;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      now += kUsPerSec / 2;
      const std::uint64_t lba = static_cast<std::uint64_t>(rng.UniformInt(0, 63));
      card.Write(now, Rec(now, OpType::kWrite, lba, 1));
    }
    return card.counters();
  };
  const DeviceCounters low = run(0.40);
  const DeviceCounters high = run(0.90);
  EXPECT_GT(high.blocks_copied, low.blocks_copied);
  EXPECT_GT(high.segment_erases, low.segment_erases);
}

TEST(FlashCardTest, InterleavedPrefillIsWorseThanSegregated) {
  auto run = [](bool interleave) {
    DeviceOptions options = TestOptions();
    options.capacity_bytes = 256 * 1024;
    LogFlashDevice card(TestCard(), options);
    card.Preload(64, 0.90, interleave);
    SimTime now = 0;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
      now += kUsPerSec / 2;
      card.Write(now, Rec(now, OpType::kWrite,
                          static_cast<std::uint64_t>(rng.UniformInt(0, 63)), 1));
    }
    return card.counters().blocks_copied;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(FlashCardTest, ReadsDoNotConsumeSlots) {
  LogFlashDevice card(TestCard(), TestOptions());
  card.Preload(16, 0.5, /*interleave=*/true);
  const std::uint64_t free_before = card.segments().free_slots();
  card.Read(0, Rec(0, OpType::kRead, 0, 8));
  EXPECT_EQ(card.segments().free_slots(), free_before);
}

TEST(FlashCardTest, EnergyIncludesCleaningWork) {
  LogFlashDevice card(TestCard(), TestOptions());
  card.Preload(16, 0.75, /*interleave=*/true);
  SimTime now = 0;
  for (int i = 0; i < 200; ++i) {
    now += kUsPerSec;
    card.Write(now, Rec(now, OpType::kWrite, i % 16, 1));
  }
  card.Finish(now + kUsPerSec);
  const EnergyMeter& meter = card.energy();
  EXPECT_GT(meter.mode_joules(kFlashErase), 0.0);
  EXPECT_GT(meter.mode_joules(kFlashClean), 0.0);
}

}  // namespace
}  // namespace mobisim
