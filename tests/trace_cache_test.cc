// Tests for the persistent fingerprint-keyed trace cache: the entry image
// (bytes pinned against earlier builds, the mapper against a reference
// lowering, generators lowering as they go against their file-level traces,
// owned and mapped views alike), entry validation, fingerprint
// sensitivity, hit/miss/corruption accounting, byte-identical results with
// the cache on/off/cold/warm (including under parallel sweeps), and the
// maintenance surface (list + gc).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
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
#include "src/trace/trace_image.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_view.h"
#include "src/util/atomic_file.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "tests/collect_sweep.h"

namespace mobisim {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mobisim_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TraceView SmallTrace() {
  return BlockMapper::Map(GenerateNamedWorkload("synth", 0.02, 7));
}

void ExpectSameColumns(const TraceView& a, const TraceView& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.block_bytes(), b.block_bytes());
  EXPECT_EQ(a.total_blocks(), b.total_blocks());
  const std::size_t n = a.size();
  EXPECT_EQ(std::memcmp(a.times(), b.times(), n * sizeof(SimTime)), 0);
  EXPECT_EQ(std::memcmp(a.lbas(), b.lbas(), n * sizeof(std::uint64_t)), 0);
  EXPECT_EQ(std::memcmp(a.counts(), b.counts(), n * sizeof(std::uint32_t)), 0);
  EXPECT_EQ(std::memcmp(a.file_ids(), b.file_ids(), n * sizeof(std::uint32_t)), 0);
  EXPECT_EQ(std::memcmp(a.ops(), b.ops(), n), 0);
}

// The lowering of section 4.1 written out on its own, as the reference
// BlockMapper must reproduce: each file's extent is the most blocks any of
// its records reaches (at least one), extents are laid out in order of first
// appearance, and an erase trims its file's whole extent.  The rows go
// through TraceImage's rows entry point.
std::string ReferenceLoweringBytes(const Trace& trace) {
  const std::uint64_t block = trace.block_bytes;
  std::vector<std::uint32_t> order;
  std::map<std::uint32_t, std::uint64_t> extent;
  for (const TraceRecord& rec : trace.records) {
    const auto [it, inserted] = extent.try_emplace(rec.file_id, 1);
    if (inserted) {
      order.push_back(rec.file_id);
    }
    if (rec.op != OpType::kErase) {
      it->second = std::max(it->second, (rec.offset + rec.size_bytes + block - 1) / block);
    }
  }
  std::map<std::uint32_t, std::uint64_t> base;
  std::uint64_t total_blocks = 0;
  for (const std::uint32_t id : order) {
    base[id] = total_blocks;
    total_blocks += extent[id];
  }
  std::vector<BlockRecord> rows;
  for (const TraceRecord& rec : trace.records) {
    BlockRecord row;
    row.time_us = rec.time_us;
    row.op = rec.op;
    row.file_id = rec.file_id;
    if (rec.op == OpType::kErase) {
      row.lba = base[rec.file_id];
      row.block_count = static_cast<std::uint32_t>(extent[rec.file_id]);
    } else {
      const std::uint64_t first = rec.offset / block;
      const std::uint64_t last =
          (rec.offset + std::max<std::uint64_t>(rec.size_bytes, 1) - 1) / block;
      row.lba = base[rec.file_id] + first;
      row.block_count = static_cast<std::uint32_t>(last - first + 1);
    }
    rows.push_back(row);
  }
  return std::string(
      TraceImage::Build(trace.name, trace.block_bytes, total_blocks, rows).bytes());
}

// A view's records read back one row at a time and written through the
// rows entry point.
std::string RowPathBytes(const TraceView& view) {
  std::vector<BlockRecord> rows;
  for (std::size_t i = 0; i < view.size(); ++i) {
    rows.push_back(view.record(i));
  }
  return std::string(
      TraceImage::Build(view.name(), view.block_bytes(), view.total_blocks(), rows).bytes());
}

std::string EntryDigest(std::string_view bytes) {
  return HexU64(Fnv1a64Wide(bytes.data(), bytes.size()));
}

TEST(TraceSerializationTest, RoundTripIsExact) {
  const TraceView trace = SmallTrace();
  const std::string data = RowPathBytes(trace);
  std::string error;
  ASSERT_TRUE(ValidateEntry(data.data(), data.size(), &error)) << error;
  // Decoded back through an owned-image view.
  const TraceView back = TraceView::FromImage(TraceImage::Copy(data));
  ExpectSameColumns(trace, back);
  // Serialization is deterministic: same trace, same bytes.
  EXPECT_EQ(data, RowPathBytes(back));
}

TEST(TraceSerializationTest, DetectsTruncationAndCorruption) {
  const std::string data = RowPathBytes(SmallTrace());
  std::string error;
  const auto valid = [&error](const std::string& bytes) {
    return ValidateEntry(bytes.data(), bytes.size(), &error);
  };

  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                                data.size() - 1}) {
    EXPECT_FALSE(valid(data.substr(0, cut))) << "cut at " << cut;
  }
  // A flipped payload byte fails the footer hash.
  std::string flipped = data;
  flipped[data.size() / 2] = static_cast<char>(flipped[data.size() / 2] ^ 0x5a);
  EXPECT_FALSE(valid(flipped));
  EXPECT_NE(error.find("hash"), std::string::npos) << error;
  // Extra trailing bytes are not silently ignored.
  EXPECT_FALSE(valid(data + "x"));
  // Wrong magic.
  std::string magic = data;
  magic[0] = 'X';
  EXPECT_FALSE(valid(magic));
  // An op byte outside OpType fails even under a matching footer.
  EntryLayout layout;
  ASSERT_TRUE(ParseEntryLayout(data.data(), data.size(), &layout));
  std::string bad_op = data;
  bad_op[layout.ops_off] = 7;
  const std::uint64_t footer = Fnv1a64Wide(bad_op.data(), layout.footer_off);
  for (int i = 0; i < 8; ++i) {
    bad_op[layout.footer_off + i] = static_cast<char>((footer >> (8 * i)) & 0xff);
  }
  EXPECT_FALSE(valid(bad_op));
  EXPECT_NE(error.find("op byte"), std::string::npos) << error;
}

// Fnv1a64Wide digests of whole entry files (footer included) as the row
// serializer wrote them before the image builder existed.  The format did
// not change, so the builder must reproduce every byte.
struct PinnedEntry {
  const char* workload;
  double scale;
  std::uint64_t seed;
  const char* digest;
};

constexpr PinnedEntry kPinnedEntries[] = {
    {"mac", 0.02, 1, "1e2e8f954876d20a"},   {"mac", 0.02, 7, "56054a5a2fb418df"},
    {"mac", 0.1, 1, "5cdd7469a3a9e499"},    {"mac", 0.1, 7, "55290b6453cb3a58"},
    {"dos", 0.02, 1, "e51b2a7d2c8af0c4"},   {"dos", 0.02, 7, "bf6bc9443ab043a9"},
    {"dos", 0.1, 1, "7119821ada4a0982"},    {"dos", 0.1, 7, "a48864171637ae8b"},
    {"hp", 0.02, 1, "f0fb9423a522ae61"},    {"hp", 0.02, 7, "40f6c4fe747cde6e"},
    {"hp", 0.1, 1, "76aa96d6b9955270"},     {"hp", 0.1, 7, "19dd7011ec324a17"},
    {"synth", 0.02, 1, "19a8755c498362d7"}, {"synth", 0.02, 7, "d92879896ab08652"},
    {"synth", 0.1, 1, "9914a31f3ae07514"},  {"synth", 0.1, 7, "657bc90c88c181c8"},
    // Full scale: long enough to reach the tails of the size distributions.
    {"mac", 1.0, 1, "55864a78727f4afe"},    {"mac", 1.0, 7, "36b5a1f1ac44fb67"},
    {"dos", 1.0, 1, "6ed60f18df10ae8e"},    {"dos", 1.0, 7, "b1b6b6f1cd56b2c9"},
    {"hp", 1.0, 1, "dbd34d4076910ae3"},     {"hp", 1.0, 7, "6b17900f5b5b53ba"},
    {"synth", 1.0, 1, "3ceb7cae999b1e74"},  {"synth", 1.0, 7, "d0d8a32c0ac365c8"},
};

TEST(TraceImageTest, BuilderReproducesPinnedEntryDigests) {
  for (const PinnedEntry& pinned : kPinnedEntries) {
    SCOPED_TRACE(std::string(pinned.workload) + " scale " +
                 std::to_string(pinned.scale) + " seed " + std::to_string(pinned.seed));
    const TraceImage image =
        TraceImage::Build(GenerateNamedWorkload(pinned.workload, pinned.scale, pinned.seed));
    EXPECT_EQ(EntryDigest(image.bytes()), pinned.digest);
    const TraceImage streamed = LowerNamedWorkload(pinned.workload, pinned.scale, pinned.seed);
    EXPECT_EQ(EntryDigest(streamed.bytes()), pinned.digest);
  }
}

// The generators lower each record as they produce it; the image must be
// the one the file-level trace lowers to.  dos and synth carry erases.
TEST(TraceImageTest, StreamedLoweringMatchesTheTracePath) {
  for (const char* workload : {"mac", "dos", "pc", "hp", "synth"}) {
    for (const double scale : {0.01, 0.3, 1.0}) {
      for (const std::uint64_t seed : {0u, 1u, 7919u}) {
        SCOPED_TRACE(std::string(workload) + " scale " + std::to_string(scale) + " seed " +
                     std::to_string(seed));
        const Trace trace = GenerateNamedWorkload(workload, scale, seed);
        const TraceImage image = TraceImage::Build(trace);
        ASSERT_EQ(LowerNamedWorkload(workload, scale, seed).bytes(), image.bytes());
        const bool has_erase =
            std::any_of(trace.records.begin(), trace.records.end(),
                        [](const TraceRecord& rec) { return rec.op == OpType::kErase; });
        const std::string name = workload;
        EXPECT_EQ(has_erase, name == "dos" || name == "pc" || name == "synth");
      }
    }
  }
}

TEST(TraceImageTest, TextImportWithEraseOnlyAndSparseFileIdsIsPinned) {
  // File 77 is only ever erased (a 1-block extent); file 4000000000 is a
  // sparse id near the top of the u32 range; the name needs padding.
  std::istringstream text(
      "mobisim-trace v1\n"
      "name sparse\n"
      "block 512\n"
      "0 w 3 0 1500\n"
      "10 e 77 0 0\n"
      "20 w 4000000000 1024 4096\n"
      "30 r 3 512 100\n"
      "40 w 3 3000 10\n"
      "50 e 3 0 0\n"
      "60 r 4000000000 0 512\n"
      "70 w 12 0 0\n"
      "80 e 4000000000 0 0\n");
  std::string error;
  const auto trace = ReadTrace(text, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const TraceImage image = TraceImage::Build(*trace);
  EXPECT_EQ(EntryDigest(image.bytes()), "ac86d9d279c3fd38");
  EXPECT_EQ(image.bytes(), ReferenceLoweringBytes(*trace));
  const TraceView view = BlockMapper::Map(*trace);
  EXPECT_EQ(view.total_blocks(), 18u);
  ASSERT_EQ(view.size(), 9u);
  EXPECT_EQ(view.record(1).op, OpType::kErase);
  EXPECT_EQ(view.record(1).lba, 6u);
  EXPECT_EQ(view.record(1).block_count, 1u);
  EXPECT_EQ(view.record(8).file_id, 4000000000u);
  EXPECT_EQ(view.record(8).block_count, 10u);
}

// A random file-level trace: reads, writes and erases over a mix of dense
// and sparse file ids, odd record counts and name lengths (so every column
// and the name exercise their padding), zero-size transfers included.
Trace RandomTrace(std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::uint32_t kIds[] = {0, 1, 2, 3, 9, 65535, 1u << 31, 4000000000u, 0xffffffffu};
  constexpr std::uint32_t kBlockBytes[] = {512, 1024, 4096};
  Trace trace;
  trace.name = std::string(static_cast<std::size_t>(rng.UniformInt(0, 13)), 'n');
  trace.block_bytes = kBlockBytes[rng.UniformInt(0, 2)];
  const std::int64_t n = rng.UniformInt(0, 301);
  SimTime now = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    TraceRecord rec;
    now += rng.UniformInt(0, 5000);
    rec.time_us = now;
    rec.op = static_cast<OpType>(rng.UniformInt(0, 2));
    rec.file_id = kIds[rng.UniformInt(0, std::size(kIds) - 1)];
    if (rec.op != OpType::kErase) {
      rec.offset = static_cast<std::uint64_t>(rng.UniformInt(0, 1 << 22));
      rec.size_bytes = static_cast<std::uint32_t>(rng.UniformInt(0, 1 << 16));
    }
    trace.records.push_back(rec);
  }
  return trace;
}

TEST(TraceImageTest, MapperMatchesTheReferenceLoweringOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    const Trace trace = RandomTrace(seed);
    const TraceImage image = TraceImage::Build(trace);
    ASSERT_EQ(image.bytes(), ReferenceLoweringBytes(trace));
    ASSERT_TRUE(ValidateEntry(image.data(), image.size()));
  }
}

TEST(TraceImageTest, OwnedAndMappedViewsDifferOnlyInZeroCopy) {
  const std::string dir = FreshDir("tc_layout");
  TraceCache cold(dir);
  const TraceView owned = LoadOrGenerateTraceView(&cold, "dos", 0.1, 3);
  TraceCache warm(dir);
  const TraceView mapped = warm.LoadView(TraceCacheFingerprint("dos", 0.1, 3));
  ASSERT_FALSE(owned.empty());
  EXPECT_FALSE(owned.zero_copy());
  EXPECT_TRUE(mapped.zero_copy());
  ExpectSameColumns(owned, mapped);
  // The entry file is the owned image's bytes, and a copy of them adopted
  // as a view (the fallback backing) holds the same columns too.
  std::string file;
  ASSERT_TRUE(ReadFileToString(warm.EntryPath(TraceCacheFingerprint("dos", 0.1, 3)), &file));
  EXPECT_EQ(file, RowPathBytes(owned));
  const TraceView copied = TraceView::FromImage(TraceImage::Copy(file));
  EXPECT_FALSE(copied.zero_copy());
  ExpectSameColumns(copied, mapped);
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

  const TraceView first = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  TraceCache warm(dir);
  const TraceView second = LoadOrGenerateTraceView(&warm, "synth", 0.02, 7);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);
  ExpectSameColumns(first, second);
  // Bit-identical means the serializations match too.
  EXPECT_EQ(RowPathBytes(first), RowPathBytes(second));
  // And both match plain generation with no cache at all.
  ExpectSameColumns(LoadOrGenerateTraceView(nullptr, "synth", 0.02, 7), second);
  ExpectSameColumns(SmallTrace(), second);
}

TEST(TraceCacheTest, CorruptEntryIsDetectedRemovedAndRegenerated) {
  const std::string dir = FreshDir("tc_corrupt");
  TraceCache cache(dir);
  // Generated cold, so owned: truncating the entry below cannot touch it.
  const TraceView original = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  ASSERT_FALSE(original.zero_copy());
  const std::string path = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 7));
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the entry as a torn write would.
  std::filesystem::resize_file(path, 17);

  TraceCache reread(dir);
  const TraceView regenerated = LoadOrGenerateTraceView(&reread, "synth", 0.02, 7);
  ASSERT_FALSE(regenerated.empty());
  EXPECT_EQ(reread.stats().corrupt, 1u);
  EXPECT_EQ(reread.stats().misses, 1u);
  EXPECT_EQ(reread.stats().stores, 1u);  // re-stored after regeneration
  ExpectSameColumns(original, regenerated);
  // The re-stored entry is whole again.
  TraceCache again(dir);
  EXPECT_FALSE(again.LoadView(TraceCacheFingerprint("synth", 0.02, 7)).empty());
  EXPECT_EQ(again.stats().hits, 1u);
}

TEST(TraceCacheTest, EachEntryFileIsHashedOncePerCache) {
  const std::string dir = FreshDir("tc_once");
  {
    TraceCache fill(dir);
    LoadOrGenerateTraceView(&fill, "synth", 0.02, 7);
    // What this cache wrote itself it never hashes.
    EXPECT_FALSE(fill.LoadView(TraceCacheFingerprint("synth", 0.02, 7)).empty());
    EXPECT_EQ(fill.stats().validated, 0u);
  }
  TraceCache cache(dir);
  const std::string fingerprint = TraceCacheFingerprint("synth", 0.02, 7);
  const TraceView first = cache.LoadView(fingerprint);
  const TraceView second = cache.LoadView(fingerprint);
  ASSERT_FALSE(second.empty());
  ExpectSameColumns(first, second);
  EXPECT_EQ(cache.stats().views, 2u);
  EXPECT_EQ(cache.stats().validated, 1u);
  EXPECT_NE(cache.StatsLine().find(" copies=0 validated=1 dir="), std::string::npos)
      << cache.StatsLine();
}

TEST(TraceCacheTest, AValidatedEntryRenamedOverByACorruptOneIsCaught) {
  const std::string dir = FreshDir("tc_renamed");
  const std::string fingerprint = TraceCacheFingerprint("synth", 0.02, 7);
  {
    TraceCache fill(dir);
    LoadOrGenerateTraceView(&fill, "synth", 0.02, 7);
  }
  TraceCache cache(dir);
  const TraceView original = cache.LoadView(fingerprint);
  ASSERT_FALSE(original.empty());
  EXPECT_EQ(cache.stats().validated, 1u);

  // The same size with one payload byte flipped, published by rename as a
  // store would publish it.
  const std::string path = cache.EntryPath(fingerprint);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes));
  bytes[bytes.size() / 2] ^= 0x5a;
  ASSERT_TRUE(WriteFileAtomic(path, bytes));

  const TraceView regenerated = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().validated, 2u);
  ExpectSameColumns(original, regenerated);
  // The re-stored entry is this cache's own: mapped again without a hash.
  EXPECT_FALSE(cache.LoadView(fingerprint).empty());
  EXPECT_EQ(cache.stats().validated, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(TraceCacheTest, AStoredEntryTruncatedInPlaceIsCaught) {
  const std::string dir = FreshDir("tc_truncated");
  TraceCache cache(dir);
  const TraceView original = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  const std::string fingerprint = TraceCacheFingerprint("synth", 0.02, 7);
  std::filesystem::resize_file(cache.EntryPath(fingerprint), 17);

  EXPECT_TRUE(cache.LoadView(fingerprint).empty());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(cache.stats().validated, 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.EntryPath(fingerprint)));
  ExpectSameColumns(original, LoadOrGenerateTraceView(&cache, "synth", 0.02, 7));
}

TEST(TraceCacheTest, UnwritableDirectoryDegradesToGeneration) {
  // A path that cannot be created (parent is a file) must not fail the run.
  const std::string dir = FreshDir("tc_unwritable");
  const std::string blocker = dir + "/file";
  std::ofstream(blocker) << "x";
  TraceCache cache(blocker + "/cache");
  EXPECT_FALSE(LoadOrGenerateTraceView(&cache, "synth", 0.02, 7).empty());
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
  const std::vector<SweepOutcome> plain = CollectSweep(points, plain_options);

  const std::string dir = FreshDir("tc_sweep");
  TraceCache cold(dir);
  SweepOptions cold_options;
  cold_options.threads = 4;
  cold_options.trace_cache = &cold;
  const std::vector<SweepOutcome> cold_run = CollectSweep(points, cold_options);
  // 2 distinct (workload, scale, seed) keys across the 12 points.
  EXPECT_EQ(cold.stats().misses, 2u);
  EXPECT_EQ(cold.stats().stores, 2u);

  TraceCache warm(dir);
  SweepOptions warm_options;
  warm_options.threads = 4;
  warm_options.trace_cache = &warm;
  const std::vector<SweepOutcome> warm_run = CollectSweep(points, warm_options);
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
  const std::vector<std::string> plain = RowsOf(CollectSweep(points, plain_options));

  const std::string dir = FreshDir("tc_remap");
  TraceCache cold(dir);
  SweepOptions cold_options;
  cold_options.threads = 4;
  cold_options.trace_cache = &cold;
  EXPECT_EQ(RowsOf(CollectSweep(points, cold_options)), plain);
  EXPECT_EQ(cold.stats().misses, 6u);
  EXPECT_EQ(cold.stats().stores, 6u);
  EXPECT_EQ(cold.stats().validated, 0u);  // every re-map is of its own store

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
    EXPECT_EQ(RowsOf(CollectSweep(points, warm_options)), plain);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.stats().stores, 0u);
    EXPECT_EQ(warm.stats().copies, 0u);
    EXPECT_EQ(warm.stats().views, views);
    EXPECT_EQ(warm.stats().hits, views);
    EXPECT_EQ(warm.stats().validated, 6u);  // once per entry file
  }
}

TEST(TraceCacheTest, ReMapOfAVanishedEntryRegenerates) {
  const std::vector<ExperimentPoint> points = DeviceOuterPoints();
  SweepOptions plain_options;
  plain_options.threads = 1;
  const std::vector<std::string> plain = RowsOf(CollectSweep(points, plain_options));

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
  EXPECT_EQ(RowsOf(CollectSweep(points, options)), plain);
  EXPECT_EQ(cache.stats().misses, 6u);
  EXPECT_EQ(cache.stats().stores, 6u);
  EXPECT_EQ(cache.stats().views, 6u + 5u);
  EXPECT_EQ(cache.stats().corrupt, 0u);
  EXPECT_EQ(ListTraceCache(dir).size(), 6u);
}

TEST(TraceCacheMaintenanceTest, ListReportsValidity) {
  const std::string dir = FreshDir("tc_list");
  TraceCache cache(dir);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 1);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 2);
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
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 1);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 2);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 3);
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
