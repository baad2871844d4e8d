// Unit and property tests for the flash segment-management substrate.
#include <gtest/gtest.h>

#include <vector>

#include "src/flash/ftl_policy.h"
#include "src/flash/segment_manager.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

SegmentManagerConfig SmallConfig() {
  SegmentManagerConfig config;
  config.capacity_bytes = 16 * 1024;  // 4 segments x 4 KB
  config.segment_bytes = 4 * 1024;
  config.block_bytes = 1024;          // 4 blocks per segment
  return config;
}

TEST(SegmentManagerTest, InitialState) {
  SegmentManager m(SmallConfig());
  EXPECT_EQ(m.segment_count(), 4u);
  EXPECT_EQ(m.blocks_per_segment(), 4u);
  EXPECT_EQ(m.total_blocks(), 16u);
  EXPECT_EQ(m.free_slots(), 16u);
  EXPECT_EQ(m.live_blocks(), 0u);
  EXPECT_EQ(m.erased_segment_count(), 4u);
  EXPECT_EQ(m.active_free_slots(), 0u);  // no active segment yet
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, WriteConsumesSlotAndMaps) {
  SegmentManager m(SmallConfig());
  m.WriteBlock(3);
  EXPECT_TRUE(m.IsMapped(3));
  EXPECT_FALSE(m.IsMapped(2));
  EXPECT_EQ(m.live_blocks(), 1u);
  EXPECT_EQ(m.free_slots(), 15u);
  EXPECT_EQ(m.erased_segment_count(), 3u);  // one became active
  EXPECT_EQ(m.active_free_slots(), 3u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, OverwriteInvalidatesOldCopy) {
  SegmentManager m(SmallConfig());
  m.WriteBlock(5);
  m.WriteBlock(5);
  // Live count unchanged, but two slots consumed.
  EXPECT_EQ(m.live_blocks(), 1u);
  EXPECT_EQ(m.free_slots(), 14u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, TrimUnmapsBlock) {
  SegmentManager m(SmallConfig());
  m.WriteBlock(1);
  m.TrimBlock(1);
  EXPECT_FALSE(m.IsMapped(1));
  EXPECT_EQ(m.live_blocks(), 0u);
  // Trim of an unmapped block is a no-op.
  m.TrimBlock(9);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, ActiveFillsCompletelyBeforeNewSegment) {
  SegmentManager m(SmallConfig());
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  EXPECT_EQ(m.active_free_slots(), 0u);
  EXPECT_EQ(m.erased_segment_count(), 3u);  // active is full but no new one opened yet
  m.WriteBlock(4);
  EXPECT_EQ(m.erased_segment_count(), 2u);
  EXPECT_EQ(m.active_free_slots(), 3u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, VictimNeedsInvalidBlock) {
  SegmentManager m(SmallConfig());
  // Fill one segment with live data: not a victim.
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  EXPECT_EQ(m.PickVictim(), SegmentManager::kNoSegment);
  // Invalidate one block: now it qualifies.
  m.WriteBlock(0);  // new copy elsewhere; old slot invalid
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  EXPECT_EQ(m.VictimLiveBlocks(victim), 3u);
}

TEST(SegmentManagerTest, GreedyPicksLowestUtilization) {
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  SegmentManager m(config);
  // Segment A: lbas 0-3, then invalidate 3 of them (rewrite elsewhere).
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  // Segment B: lbas 4-7, invalidate 1.
  for (std::uint64_t lba = 4; lba < 8; ++lba) {
    m.WriteBlock(lba);
  }
  // Rewrites land in segment C.
  m.WriteBlock(0);
  m.WriteBlock(1);
  m.WriteBlock(2);
  m.WriteBlock(4);
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  EXPECT_EQ(m.VictimLiveBlocks(victim), 1u);  // segment A retains only lba 3
}

TEST(SegmentManagerTest, CleanSegmentRelocatesLiveData) {
  SegmentManager m(SmallConfig());
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  m.WriteBlock(0);
  m.WriteBlock(1);
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  const std::uint64_t free_before = m.free_slots();
  const std::uint32_t copied = m.CleanSegment(victim);
  EXPECT_EQ(copied, 2u);  // lbas 2 and 3 were still live there
  EXPECT_TRUE(m.IsMapped(2));
  EXPECT_TRUE(m.IsMapped(3));
  EXPECT_EQ(m.segment_live_count(victim), 0u);
  EXPECT_EQ(m.segment_erase_count(victim), 1u);
  EXPECT_EQ(m.total_erase_operations(), 1u);
  // Net slots: -copied + one full segment.
  EXPECT_EQ(m.free_slots(), free_before - copied + m.blocks_per_segment());
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, CostBenefitPrefersOlderSegments) {
  // The policy is fixed at construction, so run the same traffic through a
  // greedy manager and a cost-benefit manager and compare their victims.
  auto drive = [](SegmentManager& m) {
    // Two segments with identical utilization but different ages.
    for (std::uint64_t lba = 0; lba < 4; ++lba) {
      m.WriteBlock(lba);  // segment filled first (older)
    }
    for (std::uint64_t lba = 4; lba < 8; ++lba) {
      m.WriteBlock(lba);
    }
    m.WriteBlock(0);  // invalidate one in the old segment
    m.WriteBlock(4);  // and one in the newer segment
  };
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  SegmentManager greedy_m(config);
  config.cleaning_policy = CleaningPolicy::kCostBenefit;
  SegmentManager cb_m(config);
  drive(greedy_m);
  drive(cb_m);
  const std::uint32_t greedy = greedy_m.PickVictim();
  const std::uint32_t cb = cb_m.PickVictim();
  ASSERT_NE(cb, SegmentManager::kNoSegment);
  // Cost-benefit must pick the older of the two equal-utilization segments;
  // greedy ties arbitrarily (first found) -- both must be valid victims.
  EXPECT_EQ(cb_m.VictimLiveBlocks(cb), 3u);
  EXPECT_EQ(greedy_m.VictimLiveBlocks(greedy), 3u);
  EXPECT_EQ(cb, 0u);  // segment 0 filled first
}

TEST(SegmentManagerTest, PreloadPlacesSequentially) {
  SegmentManager m(SmallConfig());
  m.Preload(0, 10);
  EXPECT_EQ(m.live_blocks(), 10u);
  EXPECT_EQ(m.free_slots(), 6u);
  for (std::uint64_t lba = 0; lba < 10; ++lba) {
    EXPECT_TRUE(m.IsMapped(lba));
  }
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, LogicalSpaceLargerThanPhysical) {
  SegmentManagerConfig config = SmallConfig();
  config.logical_blocks = 64;  // 4x the physical slots
  SegmentManager m(config);
  m.WriteBlock(60);
  EXPECT_TRUE(m.IsMapped(60));
  EXPECT_EQ(m.live_blocks(), 1u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, EraseCountStatsTrackWear) {
  SegmentManager m(SmallConfig());
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t lba = 0; lba < 4; ++lba) {
      m.WriteBlock(lba);
    }
    const std::uint32_t victim = m.PickVictim();
    if (victim != SegmentManager::kNoSegment &&
        m.free_slots() >= m.VictimLiveBlocks(victim)) {
      m.CleanSegment(victim);
    }
  }
  const RunningStats stats = m.EraseCountStats();
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_GT(stats.max(), 0.0);
  EXPECT_EQ(stats.sum(), static_cast<double>(m.total_erase_operations()));
}

TEST(SegmentManagerTest, EnduranceLimitRetiresSegments) {
  SegmentManagerConfig config = SmallConfig();
  config.endurance_limit = 2;
  SegmentManager m(config);
  // Cycle one segment's worth of data repeatedly.
  std::uint64_t cleans = 0;
  for (int round = 0; round < 64 && m.bad_segment_count() == 0; ++round) {
    for (std::uint64_t lba = 0; lba < 4; ++lba) {
      if (m.free_slots() == 0) {
        break;
      }
      m.WriteBlock(lba);
    }
    const std::uint32_t victim = m.PickVictim();
    if (victim != SegmentManager::kNoSegment &&
        m.free_slots() >= m.VictimLiveBlocks(victim)) {
      m.CleanSegment(victim);
      ++cleans;
    }
  }
  EXPECT_GT(m.bad_segment_count(), 0u);
  EXPECT_GT(cleans, 0u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, BadSegmentsNeverReused) {
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  config.endurance_limit = 1;         // every erase retires the segment
  SegmentManager m(config);
  std::uint64_t lba = 0;
  // Burn through segments until most are gone; writes must always land in
  // good segments and invariants must hold throughout.
  for (int i = 0; i < 200 && m.bad_segment_count() < 5; ++i) {
    if (m.free_slots() <= m.blocks_per_segment()) {
      const std::uint32_t victim = m.PickVictim();
      if (victim == SegmentManager::kNoSegment ||
          m.free_slots() < m.VictimLiveBlocks(victim)) {
        break;
      }
      m.CleanSegment(victim);
      continue;
    }
    m.WriteBlock(lba);
    lba = (lba + 1) % 8;
  }
  EXPECT_GT(m.bad_segment_count(), 0u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, SeparateCleaningSegmentKeepsCopiesApart) {
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  config.separate_cleaning_segment = true;
  SegmentManager m(config);
  // Fill two segments, invalidate some of the first, and clean it: the
  // survivors must not share a segment with subsequently written data.
  for (std::uint64_t lba = 0; lba < 8; ++lba) {
    m.WriteBlock(lba);
  }
  m.WriteBlock(0);
  m.WriteBlock(1);
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  m.CleanSegment(victim);  // relocates lbas 2, 3
  m.WriteBlock(20);        // fresh host write
  EXPECT_TRUE(m.CheckInvariants());
  // Survivors 2 and 3 share the cleaning segment; the fresh write lives in
  // the host log, elsewhere.
  EXPECT_EQ(m.BlockSegment(2), m.BlockSegment(3));
  EXPECT_NE(m.BlockSegment(20), m.BlockSegment(2));
}

// Property test: random traffic never violates the structural invariants
// (including the erased set and the live-count buckets CheckInvariants
// recounts), with and without wear-out and cleaning segregation.
struct PropertyCase {
  std::uint64_t seed = 0;
  std::uint32_t endurance_limit = 0;
  bool separate_cleaning_segment = false;
};

class SegmentManagerPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SegmentManagerPropertyTest, RandomTrafficKeepsInvariants) {
  SegmentManagerConfig config;
  // A segregated cleaning segment holds slots of its own, so it gets a
  // larger card to keep the same cleaning reserve workable.
  config.capacity_bytes = GetParam().separate_cleaning_segment ? 128 * 1024 : 64 * 1024;
  config.segment_bytes = 8 * 1024;
  config.block_bytes = 512;
  config.endurance_limit = GetParam().endurance_limit;
  config.separate_cleaning_segment = GetParam().separate_cleaning_segment;
  SegmentManager m(config);
  Rng rng(GetParam().seed);
  const std::uint64_t span = m.total_blocks() * 3 / 4;

  for (int i = 0; i < 4000; ++i) {
    // Keep a cleaning reserve so writes always have room; a card with a
    // wear limit may run out of segments, which ends the run.
    bool worn_out = false;
    while (m.free_slots() <= m.blocks_per_segment() * 2) {
      const std::uint32_t victim = m.PickVictim();
      const bool cleanable =
          victim != SegmentManager::kNoSegment &&
          m.free_slots() >= m.VictimLiveBlocks(victim) &&
          (m.erased_segment_count() > 0 || m.cleaning_free_slots() >= m.VictimLiveBlocks(victim));
      if (GetParam().endurance_limit > 0 && !cleanable) {
        worn_out = true;
        break;
      }
      ASSERT_TRUE(cleanable) << "iteration " << i;
      m.CleanSegment(victim);
    }
    if (worn_out) {
      EXPECT_GT(m.bad_segment_count(), 0u);
      break;
    }
    const std::uint64_t lba =
        static_cast<std::uint64_t>(rng.UniformInt(0, static_cast<std::int64_t>(span) - 1));
    if (rng.Chance(0.1)) {
      m.TrimBlock(lba);
    } else {
      m.WriteBlock(lba);
    }
    if (i % 256 == 0) {
      ASSERT_TRUE(m.CheckInvariants()) << "iteration " << i;
    }
  }
  EXPECT_TRUE(m.CheckInvariants());
  EXPECT_LE(m.live_blocks(), span);
  if (GetParam().endurance_limit > 0) {
    EXPECT_GT(m.bad_segment_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentManagerPropertyTest,
                         ::testing::Values(PropertyCase{1}, PropertyCase{2}, PropertyCase{3},
                                           PropertyCase{5}, PropertyCase{8}, PropertyCase{13},
                                           PropertyCase{21}, PropertyCase{34},
                                           PropertyCase{55, 30, false},
                                           PropertyCase{89, 0, true},
                                           PropertyCase{144, 12, true}));

// Greedy scoring that declares VictimOrder::kScan, so a manager using it
// picks victims by scoring every segment rather than from the buckets.
class ScanningGreedyFtl : public FtlPolicy {
 public:
  FtlPolicyKind kind() const override { return FtlPolicyKind::kLogStructured; }
  const char* name() const override { return "greedy-scan"; }
  double ScoreVictim(const VictimCandidate& candidate, const VictimView& view) const override {
    return greedy_.ScoreVictim(candidate, view);
  }

 private:
  LogStructuredFtl greedy_{CleaningPolicy::kGreedy};
};

TEST(SegmentManagerTest, GreedyDeclaresFewestLiveOrder) {
  EXPECT_EQ(LogStructuredFtl(CleaningPolicy::kGreedy).victim_order(), VictimOrder::kFewestLive);
  EXPECT_EQ(PageDiffFtl(CleaningPolicy::kGreedy).victim_order(), VictimOrder::kFewestLive);
  EXPECT_EQ(LogStructuredFtl(CleaningPolicy::kCostBenefit).victim_order(), VictimOrder::kScan);
  EXPECT_EQ(LogStructuredFtl(CleaningPolicy::kWearAware).victim_order(), VictimOrder::kScan);
  EXPECT_EQ(PageDiffFtl(CleaningPolicy::kWearAware).victim_order(), VictimOrder::kScan);
  EXPECT_EQ(FatRemapFtl().victim_order(), VictimOrder::kScan);
  EXPECT_EQ(ScanningGreedyFtl().victim_order(), VictimOrder::kScan);
}

struct DifferentialCase {
  std::uint64_t seed = 0;
  std::uint32_t segments = 0;
  std::uint32_t blocks_per_segment = 0;
  // Logical space as a multiple of the physical slot count.
  std::uint32_t logical_factor = 1;
  bool separate_cleaning_segment = false;
  std::uint32_t endurance_limit = 0;
};

class SegmentManagerDifferentialTest : public ::testing::TestWithParam<DifferentialCase> {};

// The bucketed greedy manager and a scanning one, fed identical random
// write, trim, clean, retire and wear-budget traffic, must pick the same
// victims, open the same segments and end in the same state.
TEST_P(SegmentManagerDifferentialTest, BucketsPickWhatTheScanPicks) {
  const DifferentialCase& param = GetParam();
  SegmentManagerConfig config;
  config.block_bytes = 512;
  config.segment_bytes = param.blocks_per_segment * config.block_bytes;
  config.capacity_bytes = static_cast<std::uint64_t>(param.segments) * config.segment_bytes;
  config.logical_blocks =
      static_cast<std::uint64_t>(param.segments) * param.blocks_per_segment * param.logical_factor;
  config.separate_cleaning_segment = param.separate_cleaning_segment;
  config.endurance_limit = param.endurance_limit;
  SegmentManager bucketed(config);
  const ScanningGreedyFtl scanning_policy;
  config.policy = &scanning_policy;
  SegmentManager scanned(config);

  const std::uint32_t bps = param.blocks_per_segment;
  Rng rng(param.seed);
  std::uint64_t victims = 0;
  std::uint64_t retired = 0;
  for (int step = 0; step < 20000; ++step) {
    // The victim either manager would pick must agree after every step.
    const std::uint32_t victim = bucketed.PickVictim();
    ASSERT_EQ(victim, scanned.PickVictim()) << "step " << step;
    ASSERT_EQ(bucketed.erased_segment_count(), scanned.erased_segment_count());
    ASSERT_EQ(bucketed.free_slots(), scanned.free_slots());
    ASSERT_EQ(bucketed.active_free_slots(), scanned.active_free_slots());
    ASSERT_EQ(bucketed.cleaning_free_slots(), scanned.cleaning_free_slots());

    const bool can_clean =
        victim != SegmentManager::kNoSegment && bucketed.free_slots() >= bucketed.VictimLiveBlocks(victim);
    if (bucketed.free_slots() <= 2ull * bps) {
      if (!can_clean) {
        break;  // worn out: the reserve can no longer be kept
      }
      bucketed.CleanSegment(victim);
      scanned.CleanSegment(victim);
      ++victims;
      continue;
    }
    const double pick = rng.NextDouble();
    // Live data stays within about 70% of the usable slots, so a logical
    // space larger than the card never overfills it.
    const bool full = bucketed.live_blocks() * 10 >= bucketed.usable_blocks() * 7;
    const auto lba = static_cast<std::uint64_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(config.logical_blocks) - 1));
    if (pick < 0.72) {
      if (full && !bucketed.IsMapped(lba)) {
        bucketed.TrimBlock(lba);
        scanned.TrimBlock(lba);
        continue;
      }
      // A write that opens a segment must open the lowest erased one.
      std::uint32_t lowest_erased = 0;
      while (lowest_erased < param.segments && !bucketed.segment_is_erased(lowest_erased)) {
        ++lowest_erased;
      }
      const std::uint32_t erased_before = bucketed.erased_segment_count();
      bucketed.WriteBlock(lba);
      scanned.WriteBlock(lba);
      ASSERT_EQ(bucketed.BlockSegment(lba), scanned.BlockSegment(lba)) << "step " << step;
      if (bucketed.erased_segment_count() < erased_before) {
        ASSERT_EQ(bucketed.BlockSegment(lba), lowest_erased) << "step " << step;
      }
    } else if (pick < 0.9) {
      bucketed.TrimBlock(lba);
      scanned.TrimBlock(lba);
    } else if (pick < 0.96) {
      if (can_clean) {
        bucketed.CleanSegment(victim);
        scanned.CleanSegment(victim);
        ++victims;
      }
    } else if (pick < 0.965) {
      const auto segment = static_cast<std::uint32_t>(rng.UniformInt(0, param.segments - 1));
      ASSERT_EQ(bucketed.segment_is_erased(segment), scanned.segment_is_erased(segment));
      if (bucketed.segment_is_erased(segment) && bucketed.erased_segment_count() > 3 &&
          bucketed.free_slots() >= 4ull * bps) {
        bucketed.RetireSegment(segment);
        scanned.RetireSegment(segment);
        ++retired;
      }
    } else {
      const auto segment = static_cast<std::uint32_t>(rng.UniformInt(0, param.segments - 1));
      const auto budget = static_cast<std::uint32_t>(rng.UniformInt(20, 400));
      bucketed.SetEnduranceBudget(segment, budget);
      scanned.SetEnduranceBudget(segment, budget);
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(bucketed.CheckInvariants()) << "step " << step;
      ASSERT_TRUE(scanned.CheckInvariants()) << "step " << step;
    }
  }
  EXPECT_GT(victims, 100u);
  EXPECT_GT(retired, 0u);
  ASSERT_TRUE(bucketed.CheckInvariants());
  ASSERT_TRUE(scanned.CheckInvariants());
  EXPECT_EQ(bucketed.total_erase_operations(), scanned.total_erase_operations());
  EXPECT_EQ(bucketed.bad_segment_count(), scanned.bad_segment_count());
  EXPECT_EQ(bucketed.live_blocks(), scanned.live_blocks());
  for (std::uint32_t s = 0; s < param.segments; ++s) {
    EXPECT_EQ(bucketed.segment_live_count(s), scanned.segment_live_count(s)) << s;
    EXPECT_EQ(bucketed.segment_erase_count(s), scanned.segment_erase_count(s)) << s;
    EXPECT_EQ(bucketed.segment_is_bad(s), scanned.segment_is_bad(s)) << s;
    EXPECT_EQ(bucketed.segment_is_erased(s), scanned.segment_is_erased(s)) << s;
  }
  for (std::uint64_t lba = 0; lba < config.logical_blocks; ++lba) {
    ASSERT_EQ(bucketed.BlockSegment(lba), scanned.BlockSegment(lba)) << lba;
  }
}

// Segment counts straddle 64-bit word boundaries; 96 x 8 and 70 x 32 also
// give short and long bucket rows.
INSTANTIATE_TEST_SUITE_P(
    Traffic, SegmentManagerDifferentialTest,
    ::testing::Values(DifferentialCase{1, 96, 8}, DifferentialCase{2, 70, 32},
                      DifferentialCase{3, 96, 8, 1, true}, DifferentialCase{4, 70, 32, 1, true},
                      DifferentialCase{5, 130, 4, 3}, DifferentialCase{6, 70, 32, 4, true},
                      DifferentialCase{7, 96, 8, 1, false, 60},
                      DifferentialCase{8, 70, 32, 2, true, 40}));

}  // namespace
}  // namespace mobisim
