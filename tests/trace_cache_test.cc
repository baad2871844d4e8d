// Tests for the persistent fingerprint-keyed trace cache: serialization
// round-trips, fingerprint sensitivity, hit/miss/corruption accounting,
// byte-identical results with the cache on/off/cold/warm (including under
// parallel sweeps), and the maintenance surface (list + gc).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/result_io.h"
#include "src/device/device_catalog.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/trace/trace_cache.h"
#include "src/trace/trace_io.h"
#include "src/util/atomic_file.h"

namespace mobisim {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mobisim_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

BlockTrace SmallTrace() {
  return BlockMapper::Map(GenerateNamedWorkload("synth", 0.02, 7));
}

bool SameTrace(const BlockTrace& a, const BlockTrace& b) {
  if (a.name != b.name || a.block_bytes != b.block_bytes ||
      a.total_blocks != b.total_blocks || a.records.size() != b.records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const BlockRecord& x = a.records[i];
    const BlockRecord& y = b.records[i];
    if (x.time_us != y.time_us || x.op != y.op || x.lba != y.lba ||
        x.block_count != y.block_count || x.file_id != y.file_id) {
      return false;
    }
  }
  return true;
}

TEST(TraceSerializationTest, RoundTripIsExact) {
  const BlockTrace trace = SmallTrace();
  const std::string data = SerializeBlockTrace(trace);
  std::string error;
  const auto back = DeserializeBlockTrace(data, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(SameTrace(trace, *back));
  // Serialization is deterministic: same trace, same bytes.
  EXPECT_EQ(data, SerializeBlockTrace(*back));
}

TEST(TraceSerializationTest, DetectsTruncationAndCorruption) {
  const std::string data = SerializeBlockTrace(SmallTrace());
  std::string error;

  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                                data.size() - 1}) {
    EXPECT_FALSE(DeserializeBlockTrace(data.substr(0, cut), &error).has_value())
        << "cut at " << cut;
  }
  // A flipped payload byte fails the footer hash.
  std::string flipped = data;
  flipped[data.size() / 2] = static_cast<char>(flipped[data.size() / 2] ^ 0x5a);
  EXPECT_FALSE(DeserializeBlockTrace(flipped, &error).has_value());
  EXPECT_NE(error.find("hash"), std::string::npos) << error;
  // Extra trailing bytes are not silently ignored.
  EXPECT_FALSE(DeserializeBlockTrace(data + "x", &error).has_value());
  // Wrong magic.
  std::string magic = data;
  magic[0] = 'X';
  EXPECT_FALSE(DeserializeBlockTrace(magic, &error).has_value());
}

TEST(TraceFingerprintTest, SensitiveToEveryKeyComponent) {
  const std::string base = TraceCacheFingerprint("mac", 1.0, 1);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, TraceCacheFingerprint("mac", 1.0, 1));  // stable
  EXPECT_NE(base, TraceCacheFingerprint("dos", 1.0, 1));  // workload
  EXPECT_NE(base, TraceCacheFingerprint("mac", 0.5, 1));  // scale
  EXPECT_NE(base, TraceCacheFingerprint("mac", 1.0, 2));  // seed
  // A format-version bump invalidates every existing entry.
  EXPECT_NE(base, TraceCacheFingerprint("mac", 1.0, 1, kTraceCacheFormatVersion + 1));
}

TEST(TraceFingerprintTest, KeyTextCapturesGeneratorConfig) {
  // The canonical key renders the *resolved* generator parameters, so a
  // preset change (not just a name change) would move the fingerprint.
  const std::string text = CanonicalTraceKeyText("mac", 1.0, 3);
  EXPECT_NE(text.find("generator = calibrated"), std::string::npos) << text;
  EXPECT_NE(text.find("seed = "), std::string::npos) << text;
  const std::string synth = CanonicalTraceKeyText("synth", 1.0, 3);
  EXPECT_NE(synth.find("generator = synth"), std::string::npos) << synth;
  // The requested name itself participates, so even the "pc" alias of "dos"
  // caches under its own key — conservative, never a wrong replay.
  EXPECT_NE(TraceCacheFingerprint("pc", 1.0, 3), TraceCacheFingerprint("dos", 1.0, 3));
}

TEST(TraceCacheTest, ColdMissStoresThenWarmHitIsBitIdentical) {
  const std::string dir = FreshDir("tc_basic");
  TraceCache cache(dir);

  const auto first = LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 7);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  TraceCache warm(dir);
  const auto second = LoadOrGenerateBlockTrace(&warm, "synth", 0.02, 7);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);
  EXPECT_TRUE(SameTrace(*first, *second));
  // Bit-identical means the serializations match too.
  EXPECT_EQ(SerializeBlockTrace(*first), SerializeBlockTrace(*second));
  // And both match plain generation with no cache at all.
  const auto plain = LoadOrGenerateBlockTrace(nullptr, "synth", 0.02, 7);
  EXPECT_TRUE(SameTrace(*plain, *second));
}

TEST(TraceCacheTest, CorruptEntryIsDetectedRemovedAndRegenerated) {
  const std::string dir = FreshDir("tc_corrupt");
  TraceCache cache(dir);
  const auto original = LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 7);
  const std::string path = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 7));
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the entry as a torn write would.
  std::filesystem::resize_file(path, 17);

  TraceCache reread(dir);
  const auto regenerated = LoadOrGenerateBlockTrace(&reread, "synth", 0.02, 7);
  ASSERT_NE(regenerated, nullptr);
  EXPECT_EQ(reread.stats().corrupt, 1u);
  EXPECT_EQ(reread.stats().misses, 1u);
  EXPECT_EQ(reread.stats().stores, 1u);  // re-stored after regeneration
  EXPECT_TRUE(SameTrace(*original, *regenerated));
  // The re-stored entry is whole again.
  TraceCache again(dir);
  EXPECT_NE(again.Load(TraceCacheFingerprint("synth", 0.02, 7)), nullptr);
}

TEST(TraceCacheTest, UnwritableDirectoryDegradesToGeneration) {
  // A path that cannot be created (parent is a file) must not fail the run.
  const std::string dir = FreshDir("tc_unwritable");
  const std::string blocker = dir + "/file";
  std::ofstream(blocker) << "x";
  TraceCache cache(blocker + "/cache");
  const auto trace = LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 7);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_GE(cache.stats().errors, 1u);
}

TEST(TraceCacheTest, ParallelSweepWithSharedCacheMatchesNoCache) {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  spec.devices = {IntelCardDatasheet(), Sdp5Datasheet()};
  spec.workloads = {"synth"};
  spec.utilizations = {0.40, 0.80, 0.95};
  spec.seeds = {1, 7};
  spec.scale = 0.02;
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 12u);

  SweepOptions plain_options;
  plain_options.threads = 1;
  const std::vector<SweepOutcome> plain = RunSweep(points, plain_options);

  const std::string dir = FreshDir("tc_sweep");
  TraceCache cold(dir);
  SweepOptions cold_options;
  cold_options.threads = 4;
  cold_options.trace_cache = &cold;
  const std::vector<SweepOutcome> cold_run = RunSweep(points, cold_options);
  // 2 distinct (workload, scale, seed) keys across the 12 points.
  EXPECT_EQ(cold.stats().misses, 2u);
  EXPECT_EQ(cold.stats().stores, 2u);

  TraceCache warm(dir);
  SweepOptions warm_options;
  warm_options.threads = 4;
  warm_options.trace_cache = &warm;
  const std::vector<SweepOutcome> warm_run = RunSweep(points, warm_options);
  EXPECT_EQ(warm.stats().hits, 2u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);

  ASSERT_EQ(plain.size(), cold_run.size());
  ASSERT_EQ(plain.size(), warm_run.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_FALSE(plain[i].failed);
    // Row-for-row byte identity across no-cache / cold / warm.
    EXPECT_EQ(RowToJson(plain[i].row), RowToJson(cold_run[i].row)) << "point " << i;
    EXPECT_EQ(RowToJson(plain[i].row), RowToJson(warm_run[i].row)) << "point " << i;
  }
}

// Six synth traces, each read by an intel-card point and then, six dispatch
// positions later, by a cu140 point: device is the outermost enumeration
// loop, so every trace's second use lies further apart than the threads.
std::vector<ExperimentPoint> DeviceOuterPoints() {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  spec.devices = {IntelCardDatasheet(), Cu140Datasheet()};
  spec.workloads = {"synth"};
  spec.utilizations = {0.80};
  spec.seeds = {1, 2, 3, 4, 5, 6};
  spec.scale = 0.02;
  return EnumerateGrid(spec);
}

std::vector<std::string> RowsOf(const std::vector<SweepOutcome>& outcomes) {
  std::vector<std::string> rows;
  for (const SweepOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.failed) << outcome.error;
    rows.push_back(RowToJson(outcome.row));
  }
  return rows;
}

TEST(TraceCacheTest, FarReusesReMapFromTheCacheWithIdenticalRows) {
  const std::vector<ExperimentPoint> points = DeviceOuterPoints();
  ASSERT_EQ(points.size(), 12u);
  const std::vector<std::size_t> leaders = SimulationLeaders(points);
  for (std::size_t i = 0; i < leaders.size(); ++i) {
    ASSERT_EQ(leaders[i], i);  // every point is its own simulation
  }
  SweepOptions plain_options;
  plain_options.threads = 1;
  const std::vector<std::string> plain = RowsOf(RunSweep(points, plain_options));

  const std::string dir = FreshDir("tc_remap");
  TraceCache cold(dir);
  SweepOptions cold_options;
  cold_options.threads = 4;
  cold_options.trace_cache = &cold;
  EXPECT_EQ(RowsOf(RunSweep(points, cold_options)), plain);
  EXPECT_EQ(cold.stats().misses, 6u);
  EXPECT_EQ(cold.stats().stores, 6u);

  // Seed k's uses sit at dispatch positions k-1 and k+5, after the up-front
  // acquisition just before position 0.  A use more than `threads` positions
  // after the previous one re-maps the entry.  Serially only seed 1's first
  // use is near: 6 acquisitions + 5 first-use + 6 second-use re-maps.  With 4
  // threads seeds 1-4 keep their acquired view: 6 + 2 + 6.  Each residency
  // maps once whichever leader reaches it first, so both counts are exact.
  for (const auto& [threads, views] :
       std::vector<std::pair<std::size_t, std::uint64_t>>{{1, 17}, {4, 14}}) {
    SCOPED_TRACE(threads);
    TraceCache warm(dir);
    SweepOptions warm_options;
    warm_options.threads = threads;
    warm_options.trace_cache = &warm;
    EXPECT_EQ(RowsOf(RunSweep(points, warm_options)), plain);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.stats().stores, 0u);
    EXPECT_EQ(warm.stats().copies, 0u);
    EXPECT_EQ(warm.stats().views, views);
    EXPECT_EQ(warm.stats().hits, views);
  }
}

TEST(TraceCacheTest, ReMapOfAVanishedEntryRegenerates) {
  const std::vector<ExperimentPoint> points = DeviceOuterPoints();
  SweepOptions plain_options;
  plain_options.threads = 1;
  const std::vector<std::string> plain = RowsOf(RunSweep(points, plain_options));

  const std::string dir = FreshDir("tc_vanish");
  {
    TraceCache fill(dir);
    SweepOptions fill_options;
    fill_options.threads = 1;
    fill_options.trace_cache = &fill;
    RunSweep(points, fill_options);
  }
  TraceCache cache(dir);
  SweepOptions options;
  options.threads = 1;
  options.trace_cache = &cache;
  // Once the first row is out, every entry disappears.  Seed 1 stays
  // resident from its acquisition through its first use; every later use
  // re-maps.  Seeds 2-6 regenerate (and re-store) at their first use, seed 1
  // at its second; the other second uses find the re-stored entries.
  options.on_emit = [&dir](const SweepOutcome& outcome) {
    if (outcome.point.index == 0) {
      for (const TraceCacheEntry& entry : ListTraceCache(dir)) {
        std::filesystem::remove(entry.path);
      }
    }
  };
  EXPECT_EQ(RowsOf(RunSweep(points, options)), plain);
  EXPECT_EQ(cache.stats().misses, 6u);
  EXPECT_EQ(cache.stats().stores, 6u);
  EXPECT_EQ(cache.stats().views, 6u + 5u);
  EXPECT_EQ(cache.stats().corrupt, 0u);
  EXPECT_EQ(ListTraceCache(dir).size(), 6u);
}

TEST(TraceCacheMaintenanceTest, ListReportsValidity) {
  const std::string dir = FreshDir("tc_list");
  TraceCache cache(dir);
  LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 1);
  LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 2);
  const std::string bad = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 2));
  std::filesystem::resize_file(bad, 10);

  const std::vector<TraceCacheEntry> entries = ListTraceCache(dir);
  ASSERT_EQ(entries.size(), 2u);
  std::size_t valid = 0;
  for (const TraceCacheEntry& entry : entries) {
    EXPECT_EQ(entry.fingerprint.size(), 16u);
    valid += entry.valid ? 1 : 0;
  }
  EXPECT_EQ(valid, 1u);
  EXPECT_TRUE(ListTraceCache(dir + "/missing").empty());
}

TEST(TraceCacheMaintenanceTest, GcRemovesInvalidAndTempThenEvictsToBudget) {
  const std::string dir = FreshDir("tc_gc");
  TraceCache cache(dir);
  LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 1);
  LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 2);
  LoadOrGenerateBlockTrace(&cache, "synth", 0.02, 3);
  // A corrupted entry and a leftover temp file from a crashed writer.
  const std::string bad = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 3));
  std::filesystem::resize_file(bad, 5);
  std::ofstream(dir + "/deadbeef.mtc.tmp.123.4") << "partial";

  // max_bytes = 0: cleanup only, valid entries all stay.
  const TraceCacheGcResult cleanup = GcTraceCache(dir, 0);
  EXPECT_EQ(cleanup.removed, 2u);  // the corrupt entry + the temp file
  EXPECT_EQ(cleanup.kept, 2u);
  EXPECT_FALSE(std::filesystem::exists(bad));

  // A 1-byte budget evicts everything.
  const TraceCacheGcResult evict = GcTraceCache(dir, 1);
  EXPECT_EQ(evict.removed, 2u);
  EXPECT_EQ(evict.kept, 0u);
  EXPECT_TRUE(ListTraceCache(dir).empty());
}

TEST(AtomicFileTest, WriteReadRoundTripAndFailurePaths) {
  const std::string dir = FreshDir("atomic_file");
  const std::string path = dir + "/data.bin";
  const std::string payload("binary\0payload\n", 15);
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, payload, &error)) << error;
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back, &error)) << error;
  EXPECT_EQ(back, payload);

  // Overwrite is atomic too: the new content fully replaces the old.
  ASSERT_TRUE(WriteFileAtomic(path, "short", &error)) << error;
  ASSERT_TRUE(ReadFileToString(path, &back, &error));
  EXPECT_EQ(back, "short");

  // A missing parent directory fails cleanly with a message and leaves no
  // temp files behind.
  EXPECT_FALSE(WriteFileAtomic(dir + "/no/such/dir/f", "x", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ReadFileToString(dir + "/absent", &back, &error));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // only data.bin
}

TEST(TraceIoTest, WriteTraceFileIsAtomicAndReportsFailure) {
  const std::string dir = FreshDir("trace_io_atomic");
  const Trace trace = GenerateNamedWorkload("synth", 0.02, 7);

  const std::string path = dir + "/t.trc";
  std::string error;
  ASSERT_TRUE(WriteTraceFile(trace, path));
  const auto back = ReadTraceFile(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->records.size(), trace.records.size());

  // Failure leaves neither the target nor a temp file.
  EXPECT_FALSE(WriteTraceFile(trace, dir + "/no/such/t.trc"));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace mobisim
