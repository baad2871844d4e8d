// Unit and property tests for the flash segment-management substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "src/device/log_flash_device.h"
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

// The order LogFlashDevice::Preload appends its blocks in: the workload's
// lbas then the filler packed, or the filler spread among them by the
// integer error accumulator.
std::vector<std::uint64_t> PreloadOrder(std::uint64_t trace_blocks, std::uint64_t filler,
                                        bool interleave) {
  std::vector<std::uint64_t> order;
  if (!interleave) {
    for (std::uint64_t lba = 0; lba < trace_blocks + filler; ++lba) {
      order.push_back(lba);
    }
    return order;
  }
  std::uint64_t next_trace = 0;
  std::uint64_t next_filler = trace_blocks;
  std::int64_t error = 0;
  const auto t = static_cast<std::int64_t>(trace_blocks);
  const auto f = static_cast<std::int64_t>(filler);
  while (next_trace < trace_blocks || next_filler < trace_blocks + filler) {
    if (next_filler >= trace_blocks + filler || (next_trace < trace_blocks && error < t)) {
      order.push_back(next_trace++);
      error += f;
    } else {
      order.push_back(next_filler++);
      error -= t;
    }
  }
  return order;
}

// LogFlashDevice::Preload fills whole segments at once; the layout must be
// the one a fresh manager reaches with one WriteBlock per block in the same
// order, down to the victim choices that follow.
TEST(SegmentManagerTest, BulkPreloadMatchesPerBlockAppends) {
  DeviceSpec spec;
  spec.name = "preload-card";
  spec.kind = DeviceKind::kFlashCard;
  spec.read_kbps = 8192.0;
  spec.write_kbps = 256.0;
  spec.erase_segment_bytes = 8 * 1024;  // 8 blocks per segment
  spec.erase_ms_per_segment = 100.0;
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 400 * 1024;  // 50 segments, 400 slots
  // 260 live blocks: the last segment of the preload is partly filled.
  const std::uint64_t trace_blocks = 97;
  const double utilization = 0.65;
  for (const bool interleave : {false, true}) {
    SCOPED_TRACE(interleave ? "interleaved" : "packed");
    LogFlashDevice device(spec, options);
    device.Preload(trace_blocks, utilization, interleave);
    const SegmentManager& bulk = device.segments();
    const auto target_live =
        static_cast<std::uint64_t>(utilization * static_cast<double>(bulk.usable_blocks()));
    const std::vector<std::uint64_t> order =
        PreloadOrder(trace_blocks, target_live - trace_blocks, interleave);

    SegmentManagerConfig config;
    config.capacity_bytes = options.capacity_bytes;
    config.segment_bytes = spec.erase_segment_bytes;
    config.block_bytes = options.block_bytes;
    SegmentManager per_block(config);
    for (const std::uint64_t lba : order) {
      per_block.WriteBlock(lba);
    }
    ASSERT_TRUE(bulk.CheckInvariants());
    ASSERT_EQ(bulk.live_blocks(), per_block.live_blocks());
    ASSERT_EQ(bulk.free_slots(), per_block.free_slots());
    ASSERT_EQ(bulk.active_free_slots(), per_block.active_free_slots());
    for (std::uint64_t lba = 0; lba < bulk.total_blocks(); ++lba) {
      ASSERT_EQ(bulk.BlockSegment(lba), per_block.BlockSegment(lba)) << lba;
    }
    for (std::uint32_t s = 0; s < bulk.segment_count(); ++s) {
      ASSERT_EQ(bulk.segment_sequence(s), per_block.segment_sequence(s)) << s;
      ASSERT_EQ(bulk.segment_is_erased(s), per_block.segment_is_erased(s)) << s;
    }

    // The device's manager is read-only here, so the traffic runs on a
    // manager bulk-loaded with the same order, checked against the device.
    SegmentManager loaded(config);
    loaded.Preload(order);
    for (std::uint64_t lba = 0; lba < bulk.total_blocks(); ++lba) {
      ASSERT_EQ(loaded.BlockSegment(lba), bulk.BlockSegment(lba)) << lba;
    }
    // Cleaning the first three preloaded segments copies their blocks in
    // slot order across the end of the partly filled active segment.
    for (std::uint32_t s = 0; s < 3; ++s) {
      ASSERT_EQ(loaded.CleanSegment(s), per_block.CleanSegment(s));
      for (std::uint64_t lba = 0; lba < loaded.total_blocks(); ++lba) {
        ASSERT_EQ(loaded.BlockSegment(lba), per_block.BlockSegment(lba)) << lba;
      }
    }
    Rng rng(interleave ? 11 : 7);
    for (int i = 0; i < 10000; ++i) {
      while (loaded.free_slots() <= 2ull * loaded.blocks_per_segment()) {
        const std::uint32_t victim = loaded.PickVictim();
        ASSERT_EQ(victim, per_block.PickVictim()) << "write " << i;
        ASSERT_NE(victim, SegmentManager::kNoSegment);
        ASSERT_EQ(loaded.CleanSegment(victim), per_block.CleanSegment(victim)) << "write " << i;
        // Copies land in slot order, so a misordered preload shows here.
        for (std::uint64_t lba = 0; lba < loaded.total_blocks(); ++lba) {
          ASSERT_EQ(loaded.BlockSegment(lba), per_block.BlockSegment(lba)) << lba;
        }
      }
      const auto lba = static_cast<std::uint64_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(target_live) - 1));
      loaded.WriteBlock(lba);
      per_block.WriteBlock(lba);
      ASSERT_EQ(loaded.PickVictim(), per_block.PickVictim()) << "write " << i;
    }
    ASSERT_TRUE(loaded.CheckInvariants());
    for (std::uint64_t lba = 0; lba < loaded.total_blocks(); ++lba) {
      ASSERT_EQ(loaded.BlockSegment(lba), per_block.BlockSegment(lba)) << lba;
    }
  }
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

// Scores through another policy's ScoreVictim but declares VictimOrder::kScan,
// so a manager using it scores every segment -- the reference every victim
// index must agree with.
class PerSegmentScanFtl : public FtlPolicy {
 public:
  explicit PerSegmentScanFtl(const FtlPolicy& inner) : inner_(inner) {}

  FtlPolicyKind kind() const override { return inner_.kind(); }
  const char* name() const override { return "per-segment-scan"; }
  double ScoreVictim(const VictimCandidate& candidate, const VictimView& view) const override {
    return inner_.ScoreVictim(candidate, view);
  }
  bool NeedsMaxEraseCount() const override { return inner_.NeedsMaxEraseCount(); }

 private:
  const FtlPolicy& inner_;
};

TEST(SegmentManagerTest, GreedyDeclaresFewestLiveOrder) {
  EXPECT_EQ(LogStructuredFtl(CleaningPolicy::kGreedy).victim_order(), VictimOrder::kFewestLive);
  EXPECT_EQ(PageDiffFtl(CleaningPolicy::kGreedy).victim_order(), VictimOrder::kFewestLive);
  EXPECT_EQ(LogStructuredFtl(CleaningPolicy::kCostBenefit).victim_order(), VictimOrder::kScan);
  EXPECT_EQ(LogStructuredFtl(CleaningPolicy::kWearAware).victim_order(), VictimOrder::kScan);
  EXPECT_EQ(PageDiffFtl(CleaningPolicy::kWearAware).victim_order(), VictimOrder::kScan);
  EXPECT_EQ(FatRemapFtl().victim_order(), VictimOrder::kOldestFilled);
  const LogStructuredFtl greedy(CleaningPolicy::kGreedy);
  EXPECT_EQ(PerSegmentScanFtl(greedy).victim_order(), VictimOrder::kScan);
}

// The log as it was kept before the slot table and batched cleaning: one
// vector of appended lbas per segment (stale entries included), a copy per
// live entry in append order checked against the mapping, and a victim scan
// calling ScoreVictim per segment.  Reference for the batched cleaner.
class PerCopyLog {
 public:
  PerCopyLog(const SegmentManagerConfig& config, const FtlPolicy& policy)
      : policy_(policy),
        bps_(config.segment_bytes / config.block_bytes),
        separate_(config.separate_cleaning_segment),
        endurance_limit_(config.endurance_limit),
        segments_(config.capacity_bytes / config.segment_bytes),
        block_segment_(config.logical_blocks, kNone) {
    free_slots_ = segments_.size() * bps_;
  }

  void Preload(std::uint64_t lba, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      Append(lba + i, /*cleaning=*/false);
    }
  }
  void WriteBlock(std::uint64_t lba) {
    Invalidate(lba);
    Append(lba, /*cleaning=*/false);
  }
  void TrimBlock(std::uint64_t lba) { Invalidate(lba); }
  std::uint32_t BlockSegment(std::uint64_t lba) const { return block_segment_[lba]; }

  std::uint32_t PickVictim() const {
    VictimView view;
    view.blocks_per_segment = bps_;
    view.fill_sequence = fill_sequence_;
    if (policy_.NeedsMaxEraseCount()) {
      for (const Segment& seg : segments_) {
        view.max_erase_count = std::max(view.max_erase_count, seg.erase_count);
      }
    }
    std::uint32_t best = kNone;
    double best_score = -1.0;
    for (std::uint32_t i = 0; i < segments_.size(); ++i) {
      const Segment& seg = segments_[i];
      if (seg.used != bps_ || seg.live == bps_) {
        continue;
      }
      const double score = policy_.ScoreVictim({i, seg.live, seg.erase_count, seg.sequence}, view);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }

  std::uint32_t CleanSegment(std::uint32_t segment) {
    Segment& victim = segments_[segment];
    std::vector<std::uint64_t> residents = std::move(victim.residents);
    victim.residents.clear();
    std::uint32_t copied = 0;
    for (const std::uint64_t lba : residents) {
      if (block_segment_[lba] == segment) {
        Invalidate(lba);
        Append(lba, /*cleaning=*/true);
        ++copied;
      }
    }
    victim.used = 0;
    victim.sequence = 0;
    ++victim.erase_count;
    const std::uint32_t limit = victim.budget > 0 ? victim.budget : endurance_limit_;
    if (limit > 0 && victim.erase_count >= limit) {
      victim.bad = true;
    } else {
      victim.erased = true;
      free_slots_ += bps_;
    }
    return copied;
  }

  void RetireSegment(std::uint32_t segment) {
    segments_[segment].bad = true;
    segments_[segment].erased = false;
    free_slots_ -= bps_;
  }
  void SetEnduranceBudget(std::uint32_t segment, std::uint32_t limit) {
    segments_[segment].budget = limit;
  }

  std::uint64_t free_slots() const { return free_slots_; }
  std::uint64_t live_blocks() const {
    return static_cast<std::uint64_t>(std::count_if(
        block_segment_.begin(), block_segment_.end(), [](std::uint32_t s) { return s != kNone; }));
  }
  std::uint32_t active_free_slots() const {
    return active_ == kNone ? 0 : bps_ - segments_[active_].used;
  }
  std::uint32_t cleaning_free_slots() const {
    if (!separate_) {
      return active_free_slots();
    }
    return cleaning_ == kNone ? 0 : bps_ - segments_[cleaning_].used;
  }
  std::uint32_t segment_live_count(std::uint32_t segment) const { return segments_[segment].live; }
  bool segment_is_bad(std::uint32_t segment) const { return segments_[segment].bad; }
  bool segment_is_erased(std::uint32_t segment) const { return segments_[segment].erased; }
  std::uint32_t erased_segment_count() const {
    return static_cast<std::uint32_t>(std::count_if(
        segments_.begin(), segments_.end(), [](const Segment& s) { return s.erased; }));
  }
  std::uint32_t segment_erase_count(std::uint32_t segment) const {
    return segments_[segment].erase_count;
  }
  std::uint64_t segment_sequence(std::uint32_t segment) const {
    return segments_[segment].sequence;
  }

 private:
  static constexpr std::uint32_t kNone = SegmentManager::kNoSegment;

  struct Segment {
    std::uint32_t used = 0;
    std::uint32_t live = 0;
    std::uint32_t erase_count = 0;
    std::uint32_t budget = 0;
    std::uint64_t sequence = 0;
    bool bad = false;
    bool erased = true;
    std::vector<std::uint64_t> residents;
  };

  void Invalidate(std::uint64_t lba) {
    if (block_segment_[lba] != kNone) {
      --segments_[block_segment_[lba]].live;
      block_segment_[lba] = kNone;
    }
  }

  void Append(std::uint64_t lba, bool cleaning) {
    std::uint32_t& role = cleaning && separate_ ? cleaning_ : active_;
    if (role == kNone) {
      role = 0;
      while (!segments_[role].erased) {
        ++role;
      }
      segments_[role].erased = false;
    }
    Segment& seg = segments_[role];
    seg.residents.push_back(lba);
    ++seg.used;
    ++seg.live;
    block_segment_[lba] = role;
    --free_slots_;
    if (seg.used == bps_) {
      seg.sequence = ++fill_sequence_;
      role = kNone;
    }
  }

  const FtlPolicy& policy_;
  std::uint32_t bps_;
  bool separate_;
  std::uint32_t endurance_limit_;
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> block_segment_;
  std::uint32_t active_ = kNone;
  std::uint32_t cleaning_ = kNone;
  std::uint64_t free_slots_ = 0;
  std::uint64_t fill_sequence_ = 0;
};

struct DifferentialCase {
  std::uint64_t seed = 0;
  std::uint32_t segments = 0;
  std::uint32_t blocks_per_segment = 0;
  // Logical space as a multiple of the physical slot count.
  std::uint32_t logical_factor = 1;
  bool separate_cleaning_segment = false;
  std::uint32_t endurance_limit = 0;
};

SegmentManagerConfig DifferentialConfig(const DifferentialCase& param) {
  SegmentManagerConfig config;
  config.block_bytes = 512;
  config.segment_bytes = param.blocks_per_segment * config.block_bytes;
  config.capacity_bytes = static_cast<std::uint64_t>(param.segments) * config.segment_bytes;
  config.logical_blocks =
      static_cast<std::uint64_t>(param.segments) * param.blocks_per_segment * param.logical_factor;
  config.separate_cleaning_segment = param.separate_cleaning_segment;
  config.endurance_limit = param.endurance_limit;
  return config;
}

// Feeds `tested` and `reference` identical random write, trim, clean,
// retire and wear-budget traffic after a preload of a quarter of the
// physical slots.  After every step both must name the same victim, copy
// the same number of blocks when cleaning it, map the touched lba to the
// same segment and agree on erase counts, fill sequences, free and erased
// counts and the room left in the active and cleaning segments.  After
// every clean (the one step that moves blocks it was not asked to), every
// 100th step and at the end, every lba must map to the same segment, the
// live counts and bad and erased flags must agree, and `tested` must pass
// CheckInvariants(); a SegmentManager reference must pass it every 1000th
// step.  A clean retires its victim exactly when the victim's erase count
// reaches the limit in force (its budget, else the card's endurance
// limit), and a card with an endurance limit must wear at least one
// segment out by that limit.
template <typename Reference>
void DriveDifferential(const DifferentialCase& param, SegmentManager& tested,
                       Reference& reference) {
  const std::uint64_t logical_blocks = DifferentialConfig(param).logical_blocks;
  const std::uint32_t bps = param.blocks_per_segment;
  const auto compare = [&](int step, bool every_lba) {
    ASSERT_EQ(tested.free_slots(), reference.free_slots()) << "step " << step;
    ASSERT_EQ(tested.erased_segment_count(), reference.erased_segment_count()) << "step " << step;
    ASSERT_EQ(tested.active_free_slots(), reference.active_free_slots()) << "step " << step;
    ASSERT_EQ(tested.cleaning_free_slots(), reference.cleaning_free_slots()) << "step " << step;
    for (std::uint32_t s = 0; s < param.segments; ++s) {
      ASSERT_EQ(tested.segment_erase_count(s), reference.segment_erase_count(s)) << s;
      ASSERT_EQ(tested.segment_sequence(s), reference.segment_sequence(s)) << s;
    }
    if (every_lba) {
      ASSERT_EQ(tested.live_blocks(), reference.live_blocks()) << "step " << step;
      for (std::uint32_t s = 0; s < param.segments; ++s) {
        ASSERT_EQ(tested.segment_live_count(s), reference.segment_live_count(s)) << s;
        ASSERT_EQ(tested.segment_is_bad(s), reference.segment_is_bad(s)) << s;
        ASSERT_EQ(tested.segment_is_erased(s), reference.segment_is_erased(s)) << s;
      }
      for (std::uint64_t lba = 0; lba < logical_blocks; ++lba) {
        ASSERT_EQ(tested.BlockSegment(lba), reference.BlockSegment(lba))
            << "step " << step << " lba " << lba;
      }
      ASSERT_TRUE(tested.CheckInvariants()) << "step " << step;
    }
    if constexpr (std::is_same_v<Reference, SegmentManager>) {
      if (step % 1000 == 0) {
        ASSERT_TRUE(reference.CheckInvariants()) << "step " << step;
      }
    }
  };
  const std::uint64_t preload = tested.total_blocks() / 4;
  tested.Preload(0, preload);
  reference.Preload(0, preload);
  ASSERT_NO_FATAL_FAILURE(compare(0, true));
  Rng rng(param.seed);
  std::uint64_t victims = 0;
  std::uint64_t retired = 0;
  std::uint64_t worn_by_card_limit = 0;
  std::vector<std::uint32_t> budgets(param.segments, 0);
  for (int step = 1; step <= 20000; ++step) {
    const std::uint32_t victim = tested.PickVictim();
    ASSERT_EQ(victim, reference.PickVictim()) << "step " << step;
    // A victim has fewer live blocks than a segment holds, so its copies
    // open at most one erased segment.
    const bool can_clean = victim != SegmentManager::kNoSegment &&
                           tested.free_slots() >= tested.VictimLiveBlocks(victim) &&
                           tested.erased_segment_count() > 0;
    bool cleaned = false;
    const auto clean = [&] {
      ASSERT_EQ(tested.CleanSegment(victim), reference.CleanSegment(victim)) << "step " << step;
      ++victims;
      cleaned = true;
      const std::uint32_t limit = budgets[victim] > 0 ? budgets[victim] : param.endurance_limit;
      const bool worn = limit > 0 && tested.segment_erase_count(victim) >= limit;
      ASSERT_EQ(tested.segment_is_bad(victim), worn) << "step " << step;
      worn_by_card_limit += worn && budgets[victim] == 0 ? 1 : 0;
    };
    const double pick = rng.NextDouble();
    // Live data stays within about 70% of the usable slots, so a logical
    // space larger than the card never overfills it.
    const bool full = tested.live_blocks() * 10 >= tested.usable_blocks() * 7;
    const auto lba =
        static_cast<std::uint64_t>(rng.UniformInt(0, static_cast<std::int64_t>(logical_blocks) - 1));
    // Keep a reserve of free slots and of erased segments (with a separate
    // cleaning segment, free slots can sit in the two open segments).
    if (tested.free_slots() <= 2ull * bps || tested.erased_segment_count() <= 2) {
      if (!can_clean) {
        break;  // worn out: the reserve can no longer be kept
      }
      ASSERT_NO_FATAL_FAILURE(clean());
    } else if (pick < 0.72) {
      if (full && !tested.IsMapped(lba)) {
        tested.TrimBlock(lba);
        reference.TrimBlock(lba);
      } else {
        // A write that opens a segment must open the lowest erased one.
        std::uint32_t lowest_erased = 0;
        while (lowest_erased < param.segments && !tested.segment_is_erased(lowest_erased)) {
          ++lowest_erased;
        }
        const std::uint32_t erased_before = tested.erased_segment_count();
        tested.WriteBlock(lba);
        reference.WriteBlock(lba);
        if (tested.erased_segment_count() < erased_before) {
          ASSERT_EQ(tested.BlockSegment(lba), lowest_erased) << "step " << step;
        }
      }
    } else if (pick < 0.9) {
      tested.TrimBlock(lba);
      reference.TrimBlock(lba);
    } else if (pick < 0.96) {
      if (can_clean) {
        ASSERT_NO_FATAL_FAILURE(clean());
      }
    } else if (pick < 0.965) {
      // The lowest erased segment at or after a random one.
      auto segment = static_cast<std::uint32_t>(rng.UniformInt(0, param.segments - 1));
      while (segment < param.segments && !tested.segment_is_erased(segment)) {
        ++segment;
      }
      // At most an eighth of the card, so the rest wears on for the run.
      if (segment < param.segments && retired < param.segments / 8 &&
          tested.erased_segment_count() > 3 && tested.free_slots() >= 4ull * bps) {
        tested.RetireSegment(segment);
        reference.RetireSegment(segment);
        ++retired;
      }
    } else {
      // Odd segments only: the even ones keep the card's endurance limit.
      const auto segment =
          static_cast<std::uint32_t>(2 * rng.UniformInt(0, param.segments / 2 - 1) + 1);
      const auto budget = static_cast<std::uint32_t>(rng.UniformInt(20, 400));
      tested.SetEnduranceBudget(segment, budget);
      reference.SetEnduranceBudget(segment, budget);
      budgets[segment] = budget;
    }
    ASSERT_EQ(tested.BlockSegment(lba), reference.BlockSegment(lba)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(compare(step, cleaned || step % 100 == 0));
  }
  ASSERT_NO_FATAL_FAILURE(compare(-1, true));
  EXPECT_GT(victims, 100u);
  EXPECT_GT(retired, 0u);
  if (param.endurance_limit > 0) {
    EXPECT_GT(worn_by_card_limit, 0u);
  }
}

class SegmentManagerDifferentialTest : public ::testing::TestWithParam<DifferentialCase> {};

// The bucketed greedy manager against one scanning every segment.
TEST_P(SegmentManagerDifferentialTest, BucketsPickWhatTheScanPicks) {
  const LogStructuredFtl greedy(CleaningPolicy::kGreedy);
  const PerSegmentScanFtl scan(greedy);
  SegmentManagerConfig config = DifferentialConfig(GetParam());
  config.policy = &greedy;
  SegmentManager bucketed(config);
  config.policy = &scan;
  SegmentManager scanned(config);
  ASSERT_NO_FATAL_FAILURE(DriveDifferential(GetParam(), bucketed, scanned));
  EXPECT_TRUE(scanned.CheckInvariants());
}

// FAT-remap's fill-order index against a scan scoring 1 / sequence.
TEST_P(SegmentManagerDifferentialTest, FifoIndexPicksWhatTheScanPicks) {
  const FatRemapFtl fifo;
  const PerSegmentScanFtl scan(fifo);
  SegmentManagerConfig config = DifferentialConfig(GetParam());
  config.policy = &fifo;
  SegmentManager indexed(config);
  config.policy = &scan;
  SegmentManager scanned(config);
  ASSERT_NO_FATAL_FAILURE(DriveDifferential(GetParam(), indexed, scanned));
  EXPECT_TRUE(scanned.CheckInvariants());
}

// The slot table, batched relocation and bulk preload against the per-copy
// log, under every victim order.
TEST_P(SegmentManagerDifferentialTest, BatchedCleanerMatchesPerCopyLog) {
  const LogStructuredFtl greedy(CleaningPolicy::kGreedy);
  const LogStructuredFtl cost_benefit(CleaningPolicy::kCostBenefit);
  const LogStructuredFtl wear_aware(CleaningPolicy::kWearAware);
  const FatRemapFtl fifo;
  for (const FtlPolicy* policy :
       std::vector<const FtlPolicy*>{&greedy, &cost_benefit, &wear_aware, &fifo}) {
    SCOPED_TRACE(policy->name());
    SegmentManagerConfig config = DifferentialConfig(GetParam());
    config.policy = policy;
    SegmentManager batched(config);
    PerCopyLog per_copy(config, *policy);
    ASSERT_NO_FATAL_FAILURE(DriveDifferential(GetParam(), batched, per_copy));
  }
}

// Segment counts straddle 64-bit word boundaries; 96 x 8 and 70 x 32 also
// give short and long bucket rows.
INSTANTIATE_TEST_SUITE_P(
    Traffic, SegmentManagerDifferentialTest,
    ::testing::Values(DifferentialCase{1, 96, 8}, DifferentialCase{2, 70, 32},
                      DifferentialCase{3, 96, 8, 1, true}, DifferentialCase{4, 70, 32, 1, true},
                      DifferentialCase{5, 130, 4, 3}, DifferentialCase{6, 70, 32, 4, true},
                      DifferentialCase{7, 96, 8, 1, false, 25},
                      DifferentialCase{8, 70, 32, 2, true, 20}));

}  // namespace
}  // namespace mobisim
