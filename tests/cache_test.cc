// Unit tests for the DRAM buffer cache, the SRAM write buffer and the
// LBA-indexed containers behind them.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/cache/sram_write_buffer.h"
#include "src/device/device_catalog.h"
#include "src/util/block_index.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

// The block address space every cache in these tests indexes.
constexpr std::uint64_t kSpace = 256;

// ------------------------------- BufferCache --------------------------------

TEST(BufferCacheTest, ZeroCapacityIsDisabled) {
  BufferCache cache(NecDramSpec(), 0, 1024, kSpace);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.ReadHit(0, 1));
  cache.Insert(0, 4);  // must be a no-op, not a crash
  EXPECT_EQ(cache.cached_blocks(), 0u);
}

TEST(BufferCacheTest, MissThenHit) {
  BufferCache cache(NecDramSpec(), 8 * 1024, 1024, kSpace);
  EXPECT_FALSE(cache.ReadHit(10, 2));
  cache.Insert(10, 2);
  EXPECT_TRUE(cache.ReadHit(10, 2));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BufferCacheTest, PartialRangeIsMiss) {
  BufferCache cache(NecDramSpec(), 8 * 1024, 1024, kSpace);
  cache.Insert(0, 3);
  EXPECT_FALSE(cache.ReadHit(0, 4));  // block 3 missing
  EXPECT_TRUE(cache.ReadHit(0, 3));
}

TEST(BufferCacheTest, LruEviction) {
  BufferCache cache(NecDramSpec(), 4 * 1024, 1024, kSpace);  // 4 blocks
  cache.Insert(0, 4);                                 // 0,1,2,3
  EXPECT_TRUE(cache.ReadHit(0, 1));                   // 0 is now most recent
  cache.Insert(100, 1);                               // evicts LRU = 1
  EXPECT_TRUE(cache.ReadHit(0, 1));
  EXPECT_FALSE(cache.ReadHit(1, 1));
  EXPECT_TRUE(cache.ReadHit(2, 1));
  EXPECT_TRUE(cache.ReadHit(100, 1));
}

TEST(BufferCacheTest, InvalidateRange) {
  BufferCache cache(NecDramSpec(), 8 * 1024, 1024, kSpace);
  cache.Insert(0, 8);
  cache.InvalidateRange(2, 3);
  EXPECT_TRUE(cache.ReadHit(0, 2));
  EXPECT_FALSE(cache.ReadHit(2, 1));
  EXPECT_FALSE(cache.ReadHit(4, 1));
  EXPECT_TRUE(cache.ReadHit(5, 3));
}

TEST(BufferCacheTest, ReinsertRefreshesNotDuplicates) {
  BufferCache cache(NecDramSpec(), 4 * 1024, 1024, kSpace);
  cache.Insert(0, 2);
  cache.Insert(0, 2);
  EXPECT_EQ(cache.cached_blocks(), 2u);
}

TEST(BufferCacheTest, RefreshEnergyScalesWithTimeAndSize) {
  MemorySpec spec = NecDramSpec();
  spec.idle_w_per_mbyte = 0.010;
  BufferCache one_mb(spec, 1024 * 1024, 1024, kSpace);
  BufferCache two_mb(spec, 2 * 1024 * 1024, 1024, kSpace);
  one_mb.AccountUntil(UsFromSec(100));
  two_mb.AccountUntil(UsFromSec(100));
  EXPECT_NEAR(one_mb.energy().total_joules(), 1.0, 1e-6);
  EXPECT_NEAR(two_mb.energy().total_joules(), 2.0, 1e-6);
  // Accounting is monotonic: going backwards adds nothing.
  two_mb.AccountUntil(UsFromSec(50));
  EXPECT_NEAR(two_mb.energy().total_joules(), 2.0, 1e-6);
}

TEST(BufferCacheTest, AccessTimeMatchesBandwidth) {
  MemorySpec spec = NecDramSpec();
  BufferCache cache(spec, 1024 * 1024, 1024, kSpace);
  EXPECT_EQ(cache.AccessTime(0), 0);
  const SimTime t = cache.AccessTime(25 * 1024 * 1024);  // one second at 25 MB/s
  EXPECT_NEAR(static_cast<double>(t), static_cast<double>(kUsPerSec), 1000.0);
}

// ----------------------------- SramWriteBuffer ------------------------------

TEST(SramWriteBufferTest, DisabledWhenZero) {
  SramWriteBuffer sram(NecSramSpec(), 0, 1024, kSpace);
  EXPECT_FALSE(sram.enabled());
  EXPECT_FALSE(sram.Absorb(0, 1));
  EXPECT_FALSE(sram.ContainsAny(0, 100));
}

TEST(SramWriteBufferTest, AbsorbUntilFull) {
  SramWriteBuffer sram(NecSramSpec(), 4 * 1024, 1024, kSpace);  // 4 blocks
  EXPECT_TRUE(sram.Absorb(0, 2));
  EXPECT_TRUE(sram.Absorb(2, 2));
  EXPECT_FALSE(sram.Absorb(4, 1));  // full
  EXPECT_EQ(sram.dirty_blocks(), 4u);
}

TEST(SramWriteBufferTest, RewriteOfBufferedBlockIsFree) {
  SramWriteBuffer sram(NecSramSpec(), 4 * 1024, 1024, kSpace);
  EXPECT_TRUE(sram.Absorb(0, 4));
  // Same blocks again: fits even though the buffer is "full".
  EXPECT_TRUE(sram.Absorb(0, 4));
  EXPECT_TRUE(sram.Absorb(1, 2));
  EXPECT_EQ(sram.dirty_blocks(), 4u);
}

TEST(SramWriteBufferTest, ContainsAllAndAny) {
  SramWriteBuffer sram(NecSramSpec(), 8 * 1024, 1024, kSpace);
  sram.Absorb(10, 3);
  EXPECT_TRUE(sram.ContainsAll(10, 3));
  EXPECT_TRUE(sram.ContainsAll(11, 2));
  EXPECT_FALSE(sram.ContainsAll(10, 4));
  EXPECT_TRUE(sram.ContainsAny(12, 5));
  EXPECT_FALSE(sram.ContainsAny(13, 5));
  EXPECT_FALSE(sram.ContainsAll(20, 0));  // empty range is not a hit
}

TEST(SramWriteBufferTest, DrainCoalescesRuns) {
  SramWriteBuffer sram(NecSramSpec(), 16 * 1024, 1024, kSpace);
  sram.Absorb(5, 2);   // 5,6
  sram.Absorb(9, 1);   // 9
  sram.Absorb(7, 2);   // 7,8 -> now 5..9 contiguous
  sram.Absorb(20, 1);  // separate run
  std::vector<BlockRange> ranges;
  sram.Drain(&ranges);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].lba, 5u);
  EXPECT_EQ(ranges[0].count, 5u);
  EXPECT_EQ(ranges[1].lba, 20u);
  EXPECT_EQ(ranges[1].count, 1u);
  EXPECT_EQ(sram.dirty_blocks(), 0u);
  EXPECT_EQ(sram.flushes(), 1u);
  // Draining an empty buffer reports nothing and counts no flush.
  std::vector<BlockRange> none;
  sram.Drain(&none);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(sram.flushes(), 1u);
}

TEST(SramWriteBufferTest, DiscardDropsBlocks) {
  SramWriteBuffer sram(NecSramSpec(), 8 * 1024, 1024, kSpace);
  sram.Absorb(0, 4);
  sram.Discard(1, 2);
  EXPECT_EQ(sram.dirty_blocks(), 2u);
  std::vector<BlockRange> ranges;
  sram.Drain(&ranges);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].lba, 0u);
  EXPECT_EQ(ranges[1].lba, 3u);
}

TEST(SramWriteBufferTest, RetentionEnergyAccrues) {
  MemorySpec spec = NecSramSpec();
  spec.idle_w_per_mbyte = 0.001;
  SramWriteBuffer sram(spec, 1024 * 1024, 1024, kSpace);
  sram.AccountUntil(UsFromSec(1000));
  EXPECT_NEAR(sram.energy().total_joules(), 1.0, 1e-6);
}

// ------------------------- LBA-indexed containers ---------------------------

// The reference LRU: a std::list in recency order (front = most recent) and
// a std::map from lba to its list position, dirty bit and payload.
class ReferenceLru {
 public:
  struct Entry {
    std::list<std::uint64_t>::iterator pos;
    bool dirty = false;
    std::uint32_t payload = 0;
  };

  bool Contains(std::uint64_t lba) const { return map_.count(lba) > 0; }
  std::size_t size() const { return map_.size(); }
  std::size_t dirty_count() const {
    std::size_t n = 0;
    for (const auto& [lba, e] : map_) {
      n += e.dirty ? 1 : 0;
    }
    return n;
  }
  const Entry& at(std::uint64_t lba) const { return map_.at(lba); }
  std::uint64_t LruBlock() const { return order_.back(); }

  bool Touch(std::uint64_t lba) {
    const auto it = map_.find(lba);
    if (it == map_.end()) {
      return false;
    }
    order_.splice(order_.begin(), order_, it->second.pos);
    return true;
  }
  void Insert(std::uint64_t lba, std::uint32_t payload) {
    order_.push_front(lba);
    map_[lba] = Entry{order_.begin(), false, payload};
  }
  void Erase(std::uint64_t lba) {
    order_.erase(map_.at(lba).pos);
    map_.erase(lba);
  }
  bool MarkDirty(std::uint64_t lba) {
    const auto it = map_.find(lba);
    if (it == map_.end()) {
      return false;
    }
    it->second.dirty = true;
    return true;
  }
  std::vector<std::uint64_t> SortedDirty() const {
    std::vector<std::uint64_t> out;
    for (const auto& [lba, e] : map_) {
      if (e.dirty) {
        out.push_back(lba);
      }
    }
    return out;
  }
  void ClearDirtyBits() {
    for (auto& [lba, e] : map_) {
      e.dirty = false;
    }
  }
  void Clear() {
    order_.clear();
    map_.clear();
  }

 private:
  std::list<std::uint64_t> order_;
  std::map<std::uint64_t, Entry> map_;
};

TEST(LruBlockMapTest, RandomOpsMatchListAndMapReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto space = static_cast<std::uint64_t>(rng.UniformInt(1, 300));
    const auto capacity = static_cast<std::uint64_t>(rng.UniformInt(1, 64));
    LruBlockMap map(space, capacity);
    ReferenceLru ref;
    for (int step = 0; step < 4000; ++step) {
      const auto lba = static_cast<std::uint64_t>(rng.UniformInt(0, space - 1));
      const double pick = rng.NextDouble();
      if (pick < 0.25) {
        ASSERT_EQ(map.TouchIfPresent(lba), ref.Touch(lba)) << "seed " << seed;
      } else if (pick < 0.55) {
        // Insert with payload, evicting the LRU entry when full (the
        // BufferCache and flash-cache pattern).
        if (ref.Contains(lba)) {
          continue;
        }
        if (ref.size() >= capacity) {
          const std::uint64_t victim = ref.LruBlock();
          ASSERT_EQ(map.LruBlock(), victim) << "seed " << seed;
          ASSERT_EQ(map.payload(victim), ref.at(victim).payload) << "seed " << seed;
          bool was_dirty = false;
          ASSERT_EQ(map.EvictLru(&was_dirty), victim) << "seed " << seed;
          ASSERT_EQ(was_dirty, ref.at(victim).dirty) << "seed " << seed;
          ref.Erase(victim);
        }
        const auto payload = static_cast<std::uint32_t>(rng.UniformInt(0, 1 << 30));
        map.InsertFront(lba, payload);
        ref.Insert(lba, payload);
      } else if (pick < 0.65) {
        const bool present = ref.Contains(lba);
        ASSERT_EQ(map.Erase(lba), present) << "seed " << seed;
        if (present) {
          ref.Erase(lba);
        }
      } else if (pick < 0.85) {
        ASSERT_EQ(map.MarkDirty(lba), ref.MarkDirty(lba)) << "seed " << seed;
      } else if (pick < 0.93) {
        std::vector<std::uint64_t> dirty;
        map.CollectDirty(&dirty);
        std::sort(dirty.begin(), dirty.end());
        ASSERT_EQ(dirty, ref.SortedDirty()) << "seed " << seed;
      } else if (pick < 0.98) {
        map.ClearDirtyBits();
        ref.ClearDirtyBits();
      } else {
        map.Clear();
        ref.Clear();
      }
      ASSERT_EQ(map.size(), ref.size()) << "seed " << seed;
      ASSERT_EQ(map.dirty_count(), ref.dirty_count()) << "seed " << seed;
    }
    // Every lba of the space agrees on membership and payload, and the two
    // drain in the same order.
    for (std::uint64_t lba = 0; lba < space; ++lba) {
      ASSERT_EQ(map.Contains(lba), ref.Contains(lba)) << "seed " << seed << " lba " << lba;
      if (ref.Contains(lba)) {
        ASSERT_EQ(map.payload(lba), ref.at(lba).payload);
      }
    }
    while (ref.size() > 0) {
      const std::uint64_t victim = ref.LruBlock();
      bool was_dirty = false;
      ASSERT_EQ(map.EvictLru(&was_dirty), victim) << "seed " << seed;
      ASSERT_EQ(was_dirty, ref.at(victim).dirty);
      ref.Erase(victim);
    }
    EXPECT_EQ(map.size(), 0u);
  }
}

TEST(FlatBlockSetTest, RandomOpsMatchStdSet) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto space = static_cast<std::uint64_t>(rng.UniformInt(1, 500));
    FlatBlockSet set(space);
    std::set<std::uint64_t> ref;
    std::vector<BlockRange> ranges;
    for (int step = 0; step < 4000; ++step) {
      const auto lba = static_cast<std::uint64_t>(rng.UniformInt(0, space - 1));
      const double pick = rng.NextDouble();
      if (pick < 0.55) {
        ASSERT_EQ(set.insert(lba), ref.insert(lba).second) << "seed " << seed;
      } else if (pick < 0.8) {
        ASSERT_EQ(set.erase(lba), ref.erase(lba) > 0) << "seed " << seed;
      } else if (pick < 0.97) {
        ASSERT_EQ(set.contains(lba), ref.count(lba) > 0) << "seed " << seed;
      } else {
        // Drain replaces what `ranges` held from the previous drain.
        set.DrainInto(&ranges);
        std::vector<BlockRange> expected;
        for (const std::uint64_t b : ref) {
          AppendCoalesced(b, &expected);
        }
        ref.clear();
        ASSERT_EQ(ranges.size(), expected.size()) << "seed " << seed;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(ranges[i].lba, expected[i].lba) << "seed " << seed;
          ASSERT_EQ(ranges[i].count, expected[i].count) << "seed " << seed;
          if (i > 0) {
            // Maximal runs: consecutive ranges never touch.
            ASSERT_LT(expected[i - 1].lba + expected[i - 1].count, expected[i].lba);
          }
        }
      }
      ASSERT_EQ(set.size(), ref.size()) << "seed " << seed;
      ASSERT_EQ(set.empty(), ref.empty());
    }
    for (std::uint64_t lba = 0; lba < space; ++lba) {
      ASSERT_EQ(set.contains(lba), ref.count(lba) > 0) << "seed " << seed << " lba " << lba;
    }
  }
}

// The message of the SimError `op` throws, or "" when it throws none.
template <typename Op>
std::string CheckMessage(Op&& op) {
  try {
    op();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(BlockIndexTest, OutOfRangeLbaFailsNamingTheLbaAndTheSize) {
  const std::string kSize = "outside a 100-block address space";
  LruBlockMap map(100, 10);
  map.InsertFront(99);
  EXPECT_NE(CheckMessage([&] { map.Contains(100); }).find("lba 100 " + kSize),
            std::string::npos);
  EXPECT_NE(CheckMessage([&] { map.InsertFront(12345); }).find("lba 12345 " + kSize),
            std::string::npos);
  FlatBlockSet set(100);
  EXPECT_NE(CheckMessage([&] { set.insert(100); }).find("lba 100 " + kSize),
            std::string::npos);
  EXPECT_NE(CheckMessage([&] { set.erase(7777); }).find("lba 7777 " + kSize),
            std::string::npos);
  // Through the owners: a record past the address space the cache was
  // built for fails rather than growing the index.
  BufferCache cache(NecDramSpec(), 8 * 1024, 1024, 100);
  EXPECT_NE(CheckMessage([&] { cache.Insert(98, 4); }).find("lba 100 " + kSize),
            std::string::npos);
  SramWriteBuffer sram(NecSramSpec(), 8 * 1024, 1024, 100);
  EXPECT_NE(CheckMessage([&] { sram.Absorb(150, 1); }).find("lba 150 " + kSize),
            std::string::npos);
  // The last in-range LBA is fine.
  EXPECT_EQ(CheckMessage([&] { set.insert(99); }), "");
}

TEST(LruBlockMapTest, ClearForgetsOnlyCachedBlocks) {
  LruBlockMap map(1000, 4);
  for (std::uint64_t lba : {5, 500, 999}) {
    map.InsertFront(lba, static_cast<std::uint32_t>(lba) + 1);
  }
  map.MarkDirty(500);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.dirty_count(), 0u);
  for (std::uint64_t lba = 0; lba < 1000; ++lba) {
    ASSERT_FALSE(map.Contains(lba));
  }
  // Reusable after a clear, with fresh payloads.
  map.InsertFront(500, 7);
  EXPECT_EQ(map.payload(500), 7u);
  EXPECT_EQ(map.LruBlock(), 500u);
}

}  // namespace
}  // namespace mobisim
