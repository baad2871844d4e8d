// Unit tests for the trace layer: records, serialization, block mapping, and
// statistics.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>

#include "src/trace/block_mapper.h"
#include "src/trace/trace_image.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_record.h"
#include "src/trace/trace_stats.h"
#include "src/util/check.h"
#include "src/util/hash.h"

namespace mobisim {
namespace {

Trace SmallTrace() {
  Trace trace;
  trace.name = "small";
  trace.block_bytes = 1024;
  trace.records = {
      {0, OpType::kWrite, /*file=*/1, /*offset=*/0, /*size=*/4096},
      {UsFromSec(1), OpType::kRead, 1, 1024, 2048},
      {UsFromSec(2), OpType::kWrite, 2, 0, 1024},
      {UsFromSec(4), OpType::kErase, 1, 0, 0},
      {UsFromSec(5), OpType::kRead, 2, 0, 512},
  };
  return trace;
}

TEST(TraceIoTest, RoundTrip) {
  const Trace trace = SmallTrace();
  std::stringstream stream;
  WriteTrace(trace, stream);
  std::string error;
  const auto loaded = ReadTrace(stream, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->name, trace.name);
  EXPECT_EQ(loaded->block_bytes, trace.block_bytes);
  ASSERT_EQ(loaded->records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_EQ(loaded->records[i].time_us, trace.records[i].time_us);
    EXPECT_EQ(loaded->records[i].op, trace.records[i].op);
    EXPECT_EQ(loaded->records[i].file_id, trace.records[i].file_id);
    EXPECT_EQ(loaded->records[i].offset, trace.records[i].offset);
    EXPECT_EQ(loaded->records[i].size_bytes, trace.records[i].size_bytes);
  }
}

TEST(TraceIoTest, RejectsBadMagic) {
  std::stringstream stream("not a trace\n");
  std::string error;
  EXPECT_FALSE(ReadTrace(stream, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceIoTest, RejectsMalformedRecord) {
  std::stringstream stream("mobisim-trace v1\nblock 1024\n12 x 1 0 0\n");
  EXPECT_FALSE(ReadTrace(stream).has_value());
}

TEST(TraceIoTest, RejectsMissingBlockSize) {
  std::stringstream stream("mobisim-trace v1\nname foo\n");
  EXPECT_FALSE(ReadTrace(stream).has_value());
}

TEST(BlockMapperTest, AssignsDisjointExtents) {
  const TraceView blocks = BlockMapper::Map(SmallTrace());
  // File 1 reaches 4 KB = 4 blocks, file 2 reaches 1 block.
  EXPECT_EQ(blocks.total_blocks(), 5u);
  EXPECT_EQ(blocks.size(), 5u);
  // First record: file 1 blocks 0..3.
  EXPECT_EQ(blocks.record(0).lba, 0u);
  EXPECT_EQ(blocks.record(0).block_count, 4u);
  // Second: offset 1024 size 2048 -> blocks 1..2.
  EXPECT_EQ(blocks.record(1).lba, 1u);
  EXPECT_EQ(blocks.record(1).block_count, 2u);
  // Third: file 2 gets the next extent.
  EXPECT_EQ(blocks.record(2).lba, 4u);
  EXPECT_EQ(blocks.record(2).block_count, 1u);
}

TEST(BlockMapperTest, EraseCoversWholeExtent) {
  const TraceView blocks = BlockMapper::Map(SmallTrace());
  const BlockRecord erase = blocks.record(3);
  EXPECT_EQ(erase.op, OpType::kErase);
  EXPECT_EQ(erase.lba, 0u);
  EXPECT_EQ(erase.block_count, 4u);
}

TEST(BlockMapperTest, SubBlockAccessRoundsUp) {
  const TraceView blocks = BlockMapper::Map(SmallTrace());
  const BlockRecord read = blocks.record(4);  // 512 bytes at offset 0
  EXPECT_EQ(read.block_count, 1u);
}

TEST(BlockMapperTest, UnalignedAccessSpansBlocks) {
  Trace trace;
  trace.block_bytes = 1024;
  // 1024 bytes starting at offset 512 touches blocks 0 and 1.
  trace.records = {{0, OpType::kRead, 1, 512, 1024}};
  const TraceView blocks = BlockMapper::Map(trace);
  EXPECT_EQ(blocks.record(0).block_count, 2u);
  EXPECT_EQ(blocks.total_blocks(), 2u);
}

TEST(BlockMapperTest, SparseIdsAndOffsetsPast32BitBlocksArePinned) {
  // File ids near 2^32 and within-file block offsets past 2^32: each file
  // still gets its own extent, in order of first appearance.
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  Trace trace;
  trace.name = "sparse-wide";
  trace.block_bytes = 1024;
  trace.records = {
      {0, OpType::kWrite, 4294967295u, (k32 + 5) * 1024, 3000},
      {10, OpType::kRead, 4294967294u, 0, 512},
      {30, OpType::kRead, 4294967294u, 5 * k32 * 1024 + 100, 0},
      {40, OpType::kWrite, 3000000000u, 0, 4096},
      {50, OpType::kRead, 4294967295u, 1024, 1024},
  };
  const TraceImage image = TraceImage::Build(trace);
  EXPECT_EQ(HexU64(Fnv1a64Wide(image.data(), image.size())), "c345303b6b0eddfc");
  const TraceView blocks = BlockMapper::Map(trace);
  EXPECT_EQ(blocks.total_blocks(), (k32 + 8) + (5 * k32 + 1) + 4);
  const BlockRecord want[] = {
      {0, OpType::kWrite, k32 + 5, 3, 4294967295u},
      {10, OpType::kRead, k32 + 8, 1, 4294967294u},
      {30, OpType::kRead, k32 + 8 + 5 * k32, 1, 4294967294u},
      {40, OpType::kWrite, k32 + 8 + 5 * k32 + 1, 4, 3000000000u},
      {50, OpType::kRead, 1, 1, 4294967295u},
  };
  ASSERT_EQ(blocks.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    SCOPED_TRACE(i);
    const BlockRecord got = blocks.record(i);
    EXPECT_EQ(got.time_us, want[i].time_us);
    EXPECT_EQ(got.op, want[i].op);
    EXPECT_EQ(got.lba, want[i].lba);
    EXPECT_EQ(got.block_count, want[i].block_count);
    EXPECT_EQ(got.file_id, want[i].file_id);
  }

  // An erase takes its file's whole extent as its block count: 2^32 - 1
  // blocks fit the 32-bit count, 2^32 fail a check naming the file and
  // the extent rather than erasing a truncated count.
  Trace erase;
  erase.block_bytes = 1024;
  erase.records = {
      {0, OpType::kWrite, 7, (k32 - 2) * 1024, 1024},
      {10, OpType::kErase, 7, 0, 0},
  };
  const TraceView fits = BlockMapper::Map(erase);
  EXPECT_EQ(fits.total_blocks(), k32 - 1);
  EXPECT_EQ(fits.record(1).lba, 0u);
  EXPECT_EQ(fits.record(1).block_count, 4294967295u);
  erase.records[0].offset = (k32 - 1) * 1024;
  EXPECT_THROW(
      {
        try {
          TraceImage::Build(erase);
        } catch (const SimError& error) {
          EXPECT_NE(std::string(error.what()).find("file 7 spans its extent of 4294967296 blocks"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      SimError);
}

TEST(TraceIoTest, FilePathRoundTrip) {
  const Trace trace = SmallTrace();
  const std::string path = ::testing::TempDir() + "/mobisim_trace_io_test.trc";
  ASSERT_TRUE(WriteTraceFile(trace, path));
  std::string error;
  const auto loaded = ReadTraceFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->records.size(), trace.records.size());
  // Missing files are reported, not crashed on.
  EXPECT_FALSE(ReadTraceFile("/nonexistent/dir/x.trc", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceStatsTest, ComputesTable3Shape) {
  const TraceStats stats = ComputeTraceStats(SmallTrace());
  EXPECT_EQ(stats.read_count, 2u);
  EXPECT_EQ(stats.write_count, 2u);
  EXPECT_EQ(stats.erase_count, 1u);
  EXPECT_DOUBLE_EQ(stats.read_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.duration_sec, 5.0);
  // Distinct KB: file1 bytes 0..4095 (4 KB) + file2 0..1023 (1 KB).
  EXPECT_EQ(stats.distinct_kbytes, 5u);
  // Mean read size in blocks: (2 + 1) / 2.
  EXPECT_DOUBLE_EQ(stats.read_blocks.mean(), 1.5);
  // Inter-arrival: 1,1,2,1 seconds.
  EXPECT_DOUBLE_EQ(stats.interarrival_sec.mean(), 1.25);
  EXPECT_DOUBLE_EQ(stats.interarrival_sec.max(), 2.0);
}

TEST(TraceStatsTest, SkipFractionDropsHead) {
  const TraceStats stats = ComputeTraceStats(SmallTrace(), 0.4);  // drop first 2
  EXPECT_EQ(stats.read_count + stats.write_count + stats.erase_count, 3u);
}

TEST(TraceStatsTest, EmptyTrace) {
  Trace trace;
  trace.block_bytes = 512;
  const TraceStats stats = ComputeTraceStats(trace);
  EXPECT_EQ(stats.read_count, 0u);
  EXPECT_EQ(stats.distinct_kbytes, 0u);
}

}  // namespace
}  // namespace mobisim
