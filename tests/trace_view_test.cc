// Tests for the zero-copy mmap trace path: a warm cache entry is served as
// an mmap-backed TraceView whose records — and whose simulation results —
// are bit-identical to an owned-image view and to plain generation; a torn
// entry falls back to regeneration and heals the cache; gc'ing an entry out
// from under a live view leaves the mapping readable (POSIX unlink
// semantics); and warm parallel sweeps stay deterministic across thread
// counts while serving every trace as a view.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/result_io.h"
#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/trace/trace_cache.h"
#include "src/trace/trace_image.h"
#include "src/trace/trace_view.h"
#include "tests/collect_sweep.h"

namespace mobisim {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mobisim_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TraceView SmallTrace() { return BlockMapper::Map(GenerateNamedWorkload("synth", 0.02, 7)); }

// A view's records, read back one row at a time.
std::vector<BlockRecord> RowsOf(const TraceView& view) {
  std::vector<BlockRecord> rows;
  for (std::size_t i = 0; i < view.size(); ++i) {
    rows.push_back(view.record(i));
  }
  return rows;
}

// `view` rewritten through the rows entry point instead of the mapper.
TraceView ViewFromRows(const TraceView& view) {
  return TraceView::FromImage(
      TraceImage::Build(view.name(), view.block_bytes(), view.total_blocks(), RowsOf(view)));
}

void ExpectSameRecord(const BlockRecord& got, const BlockRecord& want, std::size_t i) {
  ASSERT_EQ(got.time_us, want.time_us) << "record " << i;
  ASSERT_EQ(got.op, want.op) << "record " << i;
  ASSERT_EQ(got.lba, want.lba) << "record " << i;
  ASSERT_EQ(got.block_count, want.block_count) << "record " << i;
  ASSERT_EQ(got.file_id, want.file_id) << "record " << i;
}

// Field-by-field equality of every record plus the trace-level metadata.
void ExpectSameData(const TraceView& view, const TraceView& want) {
  ASSERT_EQ(view.size(), want.size());
  EXPECT_EQ(view.name(), want.name());
  EXPECT_EQ(view.block_bytes(), want.block_bytes());
  EXPECT_EQ(view.total_blocks(), want.total_blocks());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectSameRecord(view.record(i), want.record(i), i));
  }
}

TEST(TraceViewTest, RowsEntryPointCopiesExactly) {
  const TraceView mapped = SmallTrace();
  const std::vector<BlockRecord> rows = RowsOf(mapped);
  const TraceView view = ViewFromRows(mapped);
  EXPECT_FALSE(view.zero_copy());
  EXPECT_EQ(view.name(), "synth");
  EXPECT_EQ(view.block_bytes(), 512u);
  EXPECT_EQ(view.total_blocks(), mapped.total_blocks());
  EXPECT_EQ(view.total_bytes(), mapped.total_blocks() * 512);
  ASSERT_EQ(view.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectSameRecord(view.record(i), rows[i], i));
  }
  // The generator lowering as it goes writes the same records.
  ExpectSameData(view, TraceView::FromImage(LowerNamedWorkload("synth", 0.02, 7)));
}

TEST(TraceViewTest, WarmLoadIsZeroCopyAndBitIdentical) {
  const std::string dir = FreshDir("tv_warm");
  TraceCache cold(dir);
  const TraceView generated = LoadOrGenerateTraceView(&cold, "synth", 0.02, 7);
  ASSERT_FALSE(generated.empty());
  // A cold load generates: owned columns, nothing mapped.
  EXPECT_FALSE(generated.zero_copy());
  EXPECT_EQ(cold.stats().misses, 1u);
  EXPECT_EQ(cold.stats().stores, 1u);
  EXPECT_EQ(cold.stats().views, 0u);

  TraceCache warm(dir);
  const TraceView view = LoadOrGenerateTraceView(&warm, "synth", 0.02, 7);
  ASSERT_FALSE(view.empty());
  EXPECT_TRUE(view.zero_copy());
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().views, 1u);
  EXPECT_EQ(warm.stats().copies, 0u);

  // The mapped columns carry exactly the generated data, record for record.
  ExpectSameData(view, SmallTrace());
}

TEST(TraceViewTest, SimulationResultsIdenticalAcrossBackings) {
  const std::string dir = FreshDir("tv_sim");
  TraceCache cache(dir);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);  // populate the entry

  TraceCache warm(dir);
  const TraceView view = LoadOrGenerateTraceView(&warm, "synth", 0.02, 7);
  ASSERT_TRUE(view.zero_copy());

  const SimConfig config = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  // Same simulation through the mmap view, the owned view BlockMapper
  // wrote, and an owned view rewritten from rows: every result field must
  // match exactly.
  const std::string mapped = RowToJson(ResultToRow(RunSimulation(view, config)));
  const std::string owned = RowToJson(ResultToRow(RunSimulation(SmallTrace(), config)));
  const std::string rows =
      RowToJson(ResultToRow(RunSimulation(ViewFromRows(SmallTrace()), config)));
  EXPECT_EQ(mapped, owned);
  EXPECT_EQ(mapped, rows);
}

TEST(TraceViewTest, TornEntryFallsBackAndHeals) {
  const std::string dir = FreshDir("tv_torn");
  TraceCache cache(dir);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  const std::string path = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 7));
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the entry as a torn write would.  A direct LoadView must treat
  // it as a corrupt miss: empty view, file removed.
  std::filesystem::resize_file(path, 17);
  TraceCache torn(dir);
  EXPECT_TRUE(torn.LoadView(TraceCacheFingerprint("synth", 0.02, 7)).empty());
  EXPECT_EQ(torn.stats().corrupt, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));

  // The shared path regenerates, re-stores, and still returns correct data.
  TraceCache heal(dir);
  const TraceView regenerated = LoadOrGenerateTraceView(&heal, "synth", 0.02, 7);
  ASSERT_FALSE(regenerated.empty());
  EXPECT_FALSE(regenerated.zero_copy());  // this run generated
  EXPECT_EQ(heal.stats().misses, 1u);
  EXPECT_EQ(heal.stats().stores, 1u);
  ExpectSameData(regenerated, SmallTrace());

  // ...and the healed entry maps zero-copy on the next run.
  TraceCache again(dir);
  EXPECT_TRUE(LoadOrGenerateTraceView(&again, "synth", 0.02, 7).zero_copy());
}

TEST(TraceViewTest, GcEvictionKeepsLiveViewValid) {
  const std::string dir = FreshDir("tv_gc");
  TraceCache cache(dir);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);

  TraceCache warm(dir);
  const TraceView view = LoadOrGenerateTraceView(&warm, "synth", 0.02, 7);
  ASSERT_TRUE(view.zero_copy());

  // Evict everything while the view is live.  The entry leaves the
  // directory, but the unlinked file's pages stay valid until the last
  // mapping drops, so every record must still read back exactly.
  const TraceCacheGcResult gc = GcTraceCache(dir, 1);
  EXPECT_EQ(gc.kept, 0u);
  EXPECT_TRUE(ListTraceCache(dir).empty());
  ExpectSameData(view, SmallTrace());

  // The view still simulates correctly post-eviction.
  const SimConfig config = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  EXPECT_EQ(RowToJson(ResultToRow(RunSimulation(view, config))),
            RowToJson(ResultToRow(RunSimulation(SmallTrace(), config))));
}

TEST(TraceViewTest, WarmSweepDeterministicAcrossThreadCounts) {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  spec.devices = {IntelCardDatasheet(), Sdp5Datasheet()};
  spec.workloads = {"synth"};
  spec.utilizations = {0.40, 0.80, 0.95};
  spec.seeds = {1, 7};
  spec.scale = 0.02;
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 12u);

  const std::string dir = FreshDir("tv_sweep");
  TraceCache prime(dir);
  SweepOptions prime_options;
  prime_options.threads = 1;
  prime_options.trace_cache = &prime;
  const std::vector<SweepOutcome> serial = CollectSweep(points, prime_options);

  // Warm + threaded: every distinct trace arrives as one zero-copy view
  // shared across the workers, and the rows match the serial run byte for
  // byte in point order.
  TraceCache warm(dir);
  SweepOptions warm_options;
  warm_options.threads = 4;
  warm_options.trace_cache = &warm;
  const std::vector<SweepOutcome> threaded = CollectSweep(points, warm_options);
  EXPECT_EQ(warm.stats().views, 2u);  // 2 distinct (workload, scale, seed) keys
  EXPECT_EQ(warm.stats().copies, 0u);
  EXPECT_EQ(warm.stats().misses, 0u);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(threaded[i].failed);
    EXPECT_EQ(RowToJson(serial[i].row), RowToJson(threaded[i].row)) << "point " << i;
  }
}

}  // namespace
}  // namespace mobisim
