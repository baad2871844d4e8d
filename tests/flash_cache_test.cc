// Tests for the flash-as-disk-cache system (Marsh et al. architecture).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/fcache/flash_cache_system.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

FlashCacheConfig SmallConfig() {
  FlashCacheConfig config;
  config.flash_bytes = 1024 * 1024;
  config.dram_bytes = 0;  // isolate the flash-cache behaviour
  config.block_bytes = 1024;
  return config;
}

BlockRecord Rec(SimTime t, OpType op, std::uint64_t lba, std::uint32_t count) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = op;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = 1;
  return rec;
}

TEST(FlashCacheTest, ReadMissGoesToDiskThenHitsFlash) {
  FlashCacheSystem system(SmallConfig());
  const SimTime miss = system.Handle(Rec(0, OpType::kRead, 0, 2));
  EXPECT_GT(miss, UsFromMs(20));  // disk service
  EXPECT_EQ(system.flash_misses(), 1u);
  const SimTime t2 = kUsPerSec;
  const SimTime hit = system.Handle(Rec(t2, OpType::kRead, 0, 2));
  EXPECT_LT(hit, UsFromMs(5));  // flash service
  EXPECT_EQ(system.flash_hits(), 1u);
}

TEST(FlashCacheTest, WritesCompleteInFlashWithoutWakingDisk) {
  FlashCacheSystem system(SmallConfig());
  // Let the disk fall asleep first.
  const SimTime t = 10 * kUsPerSec;
  const SimTime response = system.Handle(Rec(t, OpType::kWrite, 0, 2));
  EXPECT_LT(response, UsFromMs(30));  // two flash block writes, no spin-up
  EXPECT_EQ(system.disk_counters().spinups, 0u);
  EXPECT_EQ(system.dirty_blocks(), 2u);
}

TEST(FlashCacheTest, DirtyThresholdTriggersDestage) {
  FlashCacheConfig config = SmallConfig();
  config.destage_threshold = 0.05;
  FlashCacheSystem system(config);
  SimTime t = 10 * kUsPerSec;
  for (int i = 0; i < 64; ++i) {
    system.Handle(Rec(t, OpType::kWrite, static_cast<std::uint64_t>(i) * 4, 4));
    t += kUsPerSec;
  }
  EXPECT_GT(system.destages(), 0u);
  EXPECT_GT(system.disk_counters().writes, 0u);
  // After a destage the data is clean but still cached.
  EXPECT_GT(system.cached_blocks(), 0u);
}

TEST(FlashCacheTest, EvictionRecyclesSlots) {
  FlashCacheConfig config = SmallConfig();
  config.flash_bytes = 256 * 1024;  // tiny cache: 2 segments
  config.flash_usable_fraction = 0.5;
  FlashCacheSystem system(config);
  SimTime t = 0;
  // Stream far more distinct blocks than the cache holds.
  for (int i = 0; i < 1000; ++i) {
    system.Handle(Rec(t, OpType::kRead, static_cast<std::uint64_t>(i), 1));
    t += kUsPerSec / 10;
  }
  EXPECT_LE(system.cached_blocks(), 128u);
  EXPECT_GT(system.flash_misses(), 900u);
}

TEST(FlashCacheTest, EraseDropsCachedBlocks) {
  FlashCacheSystem system(SmallConfig());
  system.Handle(Rec(0, OpType::kWrite, 0, 4));
  EXPECT_EQ(system.cached_blocks(), 4u);
  system.Handle(Rec(1000, OpType::kErase, 0, 4));
  EXPECT_EQ(system.cached_blocks(), 0u);
  EXPECT_EQ(system.dirty_blocks(), 0u);
}

TEST(FlashCacheTest, FinishDestagesDirtyData) {
  FlashCacheSystem system(SmallConfig());
  system.Handle(Rec(10 * kUsPerSec, OpType::kWrite, 0, 4));
  EXPECT_EQ(system.dirty_blocks(), 4u);
  system.Finish(20 * kUsPerSec);
  EXPECT_EQ(system.dirty_blocks(), 0u);
  EXPECT_GT(system.disk_counters().writes, 0u);
}

TEST(FlashCacheTest, EnergyAccountedAcrossComponents) {
  FlashCacheSystem system(SmallConfig());
  system.Handle(Rec(0, OpType::kRead, 0, 2));
  system.Handle(Rec(kUsPerSec, OpType::kWrite, 10, 2));
  system.Finish(30 * kUsPerSec);
  EXPECT_GT(system.disk_energy_j(), 0.0);
  EXPECT_GT(system.flash_energy_j(), 0.0);
  EXPECT_GT(system.total_energy_j(),
            system.disk_energy_j());  // flash + dram contribute
}

TEST(FlashCacheTest, CacheKeepsDiskAsleepLongerThanBaseline) {
  // Compare spin-up counts for a read-heavy pattern with strong reuse.
  FlashCacheConfig config = SmallConfig();
  FlashCacheSystem cached(config);
  SimTime t = 0;
  std::uint64_t lba = 0;
  for (int i = 0; i < 200; ++i) {
    // 20-s gaps guarantee the disk sleeps between misses; reuse of a small
    // set means the flash absorbs almost everything after warmup.
    cached.Handle(Rec(t, OpType::kRead, lba, 1));
    lba = (lba + 1) % 8;
    t += 20 * kUsPerSec;
  }
  // 8 misses fill the cache; everything else hits flash.
  EXPECT_LE(cached.disk_counters().spinups, 9u);
  EXPECT_GE(cached.flash_hits(), 190u);
}

// Replays a seeded random read/write/erase mix on a small cache and returns
// every count and energy it produced.  Caches of 128-256 usable blocks over
// a few hundred LBAs evict constantly, so eviction-forced full destages,
// piggyback chunks on read misses and the dirty threshold all fire.
std::string RandomMixFingerprint(std::uint64_t seed) {
  Rng rng(seed);
  FlashCacheConfig config;
  config.flash_bytes = (2 + seed % 3) * 128 * 1024;
  config.dram_bytes = seed % 2 == 0 ? 0 : 16 * 1024;
  const double thresholds[] = {0.3, 0.6, 0.95};
  config.destage_threshold = thresholds[seed % 3];
  config.destage_chunk_blocks = static_cast<std::uint32_t>(4 + 12 * (seed % 4));
  FlashCacheSystem system(config);

  const std::int64_t span = rng.UniformInt(150, 700);
  SimTime t = 0;
  SimTime response_sum = 0;
  for (int i = 0; i < 1500; ++i) {
    t += static_cast<SimTime>(rng.Chance(0.1) ? rng.Exponential(8e6) : rng.Exponential(5e4));
    const double pick = rng.NextDouble();
    const OpType op = pick < 0.45 ? OpType::kRead : pick < 0.9 ? OpType::kWrite : OpType::kErase;
    const auto lba = static_cast<std::uint64_t>(rng.UniformInt(0, span - 1));
    const auto count = static_cast<std::uint32_t>(rng.UniformInt(1, 8));
    response_sum += system.Handle(Rec(t, op, lba, count));
    EXPECT_LE(system.dirty_blocks(), system.cached_blocks());
  }
  system.Finish(t + 30 * kUsPerSec);
  EXPECT_EQ(system.dirty_blocks(), 0u);

  const DeviceCounters& disk = system.disk_counters();
  const DeviceCounters& flash = system.flash_counters();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "destages=%llu hits=%llu misses=%llu cached=%llu response=%lld "
                "disk=%llu/%llu/%llu/%llu flash=%llu/%llu/%llu/%llu/%llu/%llu "
                "energy=%.17g/%.17g/%.17g",
                static_cast<unsigned long long>(system.destages()),
                static_cast<unsigned long long>(system.flash_hits()),
                static_cast<unsigned long long>(system.flash_misses()),
                static_cast<unsigned long long>(system.cached_blocks()),
                static_cast<long long>(response_sum),
                static_cast<unsigned long long>(disk.reads),
                static_cast<unsigned long long>(disk.writes),
                static_cast<unsigned long long>(disk.bytes_written),
                static_cast<unsigned long long>(disk.spinups),
                static_cast<unsigned long long>(flash.reads),
                static_cast<unsigned long long>(flash.writes),
                static_cast<unsigned long long>(flash.segment_erases),
                static_cast<unsigned long long>(flash.blocks_copied),
                static_cast<unsigned long long>(flash.clean_jobs),
                static_cast<unsigned long long>(flash.write_stalls),
                system.disk_energy_j(), system.flash_energy_j(), system.dram_energy_j());
  return buf;
}

TEST(FlashCacheTest, RandomMixesMatchPinnedResults) {
  // Captured from the implementation that found dirty blocks by scanning
  // and sorting every cache entry on each destage.
  const char* const kPinned[] = {
      "destages=324 hits=186 misses=475 cached=188 response=1236575524 disk=475/735/3100672/60 flash=186/5358/211/21838/211/53 energy=526.77941549999991/226.32283000000078/0.25834404375000031",
      "destages=220 hits=363 misses=307 cached=256 response=519187954 disk=307/641/2967552/68 flash=363/4566/212/22826/212/5 energy=529.86101275000021/225.1683849835004/0.058763250000000371",
      "destages=319 hits=78 misses=605 cached=128 response=5383055137322 disk=605/641/3036160/15 flash=78/5801/4872/617943/4872/4872 energy=153.10566200000011/5063.8061172633197/2.0848987008750006",
      "destages=533 hits=87 misses=578 cached=192 response=813764742 disk=578/972/2891776/76 flash=87/5573/250/26619/250/49 energy=672.63425544999973/267.31576116100126/0.057135000000000331",
      "destages=311 hits=201 misses=445 cached=250 response=585986109 disk=445/730/3152896/90 flash=201/5340/272/29726/272/4 energy=726.88947254999994/288.86840679950109/0.34392495862500028",
      "destages=232 hits=379 misses=314 cached=123 response=3150080853329 disk=314/594/2831360/13 flash=379/4519/2792/352987/2793/2790 energy=142.62217740000006/2902.5122902674152/0.058119750000000379",
      "destages=258 hits=259 misses=402 cached=192 response=987049456 disk=402/650/3054592/59 flash=259/5101/214/22483/214/46 energy=498.24024099999968/228.97103313150043/0.26780840775000059",
      "destages=506 hits=139 misses=515 cached=256 response=623163201 disk=515/986/3024896/66 flash=139/5587/228/23853/228/8 energy=575.57636280000008/242.9227600985007/0.058734000000000328",
      "destages=310 hits=202 misses=509 cached=128 response=2679454465438 disk=509/616/2639872/34 flash=202/5195/3588/454198/3588/3588 energy=291.77822535000013/3729.8215992138844/1.5508149530625006",
      "destages=288 hits=193 misses=482 cached=192 response=909239471 disk=482/660/3036160/74 flash=193/5261/230/24371/230/49 energy=604.09632614999987/245.98928251700085/0.058012500000000397",
      "destages=307 hits=139 misses=540 cached=256 response=650849274 disk=540/650/3069952/78 flash=139/5613/241/25491/241/5 energy=632.73689170000011/257.11688732950108/0.30299354681250051",
      "destages=407 hits=241 misses=417 cached=128 response=4024075410239 disk=417/807/2821120/32 flash=241/5112/3410/431496/3410/3410 energy=270.28976950000015/3544.8176862538917/0.058480500000000386",
      "destages=246 hits=362 misses=320 cached=192 response=870884432 disk=320/686/2850816/61 flash=362/4602/214/22982/214/37 energy=509.30742970000011/228.44137264500014/0.26753007262500028",
      "destages=299 hits=138 misses=525 cached=256 response=638804073 disk=525/665/2940928/77 flash=138/5450/231/24374/231/3 energy=629.90744075000009/246.4777734150008/0.057261750000000389",
      "destages=313 hits=56 misses=622 cached=128 response=5317780697705 disk=622/658/3062784/58 flash=56/6065/5157/654159/5157/5156 energy=485.29635180000002/5359.9362985933049/2.20759892925",
      "destages=452 hits=209 misses=463 cached=192 response=1033258664 disk=463/895/2775040/71 flash=209/5233/225/23759/225/41 energy=589.65957875000015/240.94973832050059/0.058246500000000409",
      "destages=145 hits=497 misses=166 cached=146 response=422726402 disk=166/467/2058240/61 flash=497/3619/40/1734/40/0 energy=453.28140580000013/43.484407352999625/0.32916142425000028",
      "destages=328 hits=68 misses=586 cached=128 response=4054066290205 disk=586/695/3160064/23 flash=68/5860/4993/633372/4993/4993 energy=208.34409335000015/5189.4753007423151/0.059075250000000391",
      "destages=305 hits=110 misses=537 cached=192 response=849660163 disk=537/674/2996224/94 flash=110/5572/271/29308/271/42 energy=753.60996259999979/289.17823431550153/0.36763476487500063",
      "destages=319 hits=337 misses=326 cached=256 response=547287437 disk=326/672/2543616/71 flash=337/4808/231/25016/231/4 energy=596.51478585000018/245.37175943000065/0.059923500000000372",
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(RandomMixFingerprint(seed), kPinned[seed - 1]) << "seed " << seed;
  }
}

// Replays a small calibrated trace through a small flash cache behind a
// small DRAM cache and returns what the flash cache did.
std::string TraceFingerprint(const std::string& workload, std::uint64_t flash_kb,
                             std::uint64_t dram_kb) {
  const TraceView trace = BlockMapper::Map(GenerateNamedWorkload(workload, 0.1));
  FlashCacheConfig config;
  config.flash_bytes = flash_kb * 1024;
  config.dram_bytes = dram_kb * 1024;
  config.block_bytes = trace.block_bytes();
  config.disk_capacity_bytes = std::max<std::uint64_t>(trace.total_bytes(), 40ull << 20);
  FlashCacheSystem system(config);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    system.Handle(trace.record(i));
  }
  system.Finish(trace.times()[trace.size() - 1]);

  const DeviceCounters& disk = system.disk_counters();
  const DeviceCounters& flash = system.flash_counters();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "hits=%llu misses=%llu destages=%llu cached=%llu disk=%llu/%llu/%llu "
                "flash=%llu/%llu/%llu/%llu/%llu/%llu",
                static_cast<unsigned long long>(system.flash_hits()),
                static_cast<unsigned long long>(system.flash_misses()),
                static_cast<unsigned long long>(system.destages()),
                static_cast<unsigned long long>(system.cached_blocks()),
                static_cast<unsigned long long>(disk.reads),
                static_cast<unsigned long long>(disk.writes),
                static_cast<unsigned long long>(disk.spinups),
                static_cast<unsigned long long>(flash.reads),
                static_cast<unsigned long long>(flash.writes),
                static_cast<unsigned long long>(flash.segment_erases),
                static_cast<unsigned long long>(flash.blocks_copied),
                static_cast<unsigned long long>(flash.clean_jobs),
                static_cast<unsigned long long>(flash.write_stalls));
  return buf;
}

TEST(FlashCacheTest, SmallTracesMatchPinnedCounters) {
  // Captured from the implementation whose LRU was a std::list indexed by a
  // std::unordered_map.  The caches are small enough that both the DRAM and
  // the flash cache evict throughout.
  EXPECT_EQ(TraceFingerprint("mac", 1024, 64),
            "hits=1170 misses=5142 destages=3063 cached=512 disk=5142/7202/15 "
            "flash=1170/15996/144/3179/144/0");
  EXPECT_EQ(TraceFingerprint("dos", 512, 32),
            "hits=13 misses=219 destages=160 cached=512 disk=219/638/1 "
            "flash=13/3310/58/12111/59/0");
}

}  // namespace
}  // namespace mobisim
