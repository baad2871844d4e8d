// Tests for the HPL and DiskSim trace importers.
#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/external_formats.h"

namespace mobisim {
namespace {

TEST(HplImportTest, ParsesByteOffsets) {
  std::istringstream in(
      "# comment\n"
      "0.000 0 0 4096 R\n"
      "0.125 0 8192 2048 W\n"
      "1.500 0 1024 512 r\n");
  HplImportOptions options;
  options.block_bytes = 1024;
  std::string error;
  const auto trace = ImportHplTrace(in, options, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  ASSERT_EQ(trace->size(), 3u);
  EXPECT_EQ(trace->record(0).op, OpType::kRead);
  EXPECT_EQ(trace->record(0).lba, 0u);
  EXPECT_EQ(trace->record(0).block_count, 4u);
  EXPECT_EQ(trace->record(1).op, OpType::kWrite);
  EXPECT_EQ(trace->record(1).lba, 8u);
  EXPECT_EQ(trace->record(1).block_count, 2u);
  EXPECT_EQ(trace->record(1).time_us, 125000);
  EXPECT_EQ(trace->total_blocks(), 10u);
}

TEST(HplImportTest, BlockOffsets) {
  std::istringstream in("0.0 0 100 4 W\n");
  HplImportOptions options;
  options.offsets_in_bytes = false;
  const auto trace = ImportHplTrace(in, options);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->record(0).lba, 100u);
  EXPECT_EQ(trace->record(0).block_count, 4u);
}

TEST(HplImportTest, DeviceFilter) {
  std::istringstream in(
      "0.0 0 0 1024 R\n"
      "0.1 1 0 1024 R\n"
      "0.2 0 1024 1024 W\n");
  HplImportOptions options;
  options.device_filter = 0;
  const auto trace = ImportHplTrace(in, options);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->size(), 2u);
}

TEST(HplImportTest, RejectsMalformed) {
  std::istringstream bad_op("0.0 0 0 1024 X\n");
  std::string error;
  EXPECT_FALSE(ImportHplTrace(bad_op, HplImportOptions{}, &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);

  std::istringstream truncated("0.0 0 0\n");
  EXPECT_FALSE(ImportHplTrace(truncated, HplImportOptions{}, &error).has_value());

  std::istringstream empty("# nothing\n");
  EXPECT_FALSE(ImportHplTrace(empty, HplImportOptions{}, &error).has_value());
}

// 2^45 bytes at 1 KiB blocks is 2^35 blocks: past the 32-bit block count,
// so the import fails instead of keeping a truncated (0-block) write.
TEST(HplImportTest, RejectsALengthPastTheBlockCount) {
  std::istringstream in(
      "0.0 0 0 1024 R\n"
      "0.1 0 0 35184372088832 W\n");
  std::string error;
  EXPECT_FALSE(ImportHplTrace(in, HplImportOptions{}, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("length"), std::string::npos) << error;

  HplImportOptions blocks;
  blocks.offsets_in_bytes = false;
  std::istringstream widest("0.0 0 7 4294967295 W\n");
  const auto trace = ImportHplTrace(widest, blocks, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->record(0).block_count, 4294967295u);
  EXPECT_EQ(trace->total_blocks(), std::uint64_t{7} + 4294967295u);

  std::istringstream one_more("0.0 0 7 4294967296 W\n");
  EXPECT_FALSE(ImportHplTrace(one_more, blocks, &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  std::istringstream wraps("0.0 0 18446744073709551615 2 W\n");
  EXPECT_FALSE(ImportHplTrace(wraps, blocks, &error).has_value());
  EXPECT_NE(error.find("length"), std::string::npos) << error;
}

// A time past SimTime's range or before zero fails the import with its line
// instead of wrapping into a garbage (or negative) simulation time.
TEST(HplImportTest, RejectsATimestampOutOfRange) {
  std::string error;
  std::istringstream huge(
      "0.0 0 0 2048 W\n"
      "1e300 0 8192 2048 W\n");
  EXPECT_FALSE(ImportHplTrace(huge, HplImportOptions{}, &error).has_value());
  EXPECT_NE(error.find("hpl line 2: timestamp"), std::string::npos) << error;

  std::istringstream negative("-0.5 0 0 2048 W\n");
  EXPECT_FALSE(ImportHplTrace(negative, HplImportOptions{}, &error).has_value());
  EXPECT_NE(error.find("hpl line 1: timestamp"), std::string::npos) << error;

  // 2^62 us is the first time out of range; just below it imports.
  std::istringstream last("4611686018427.3 0 0 2048 W\n");
  const auto trace = ImportHplTrace(last, HplImportOptions{}, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_GT(trace->record(0).time_us, SimTime{4611686018427000000});
}

TEST(HplImportTest, SortsOutOfOrderTimestamps) {
  std::istringstream in(
      "2.0 0 0 1024 R\n"
      "1.0 0 1024 1024 W\n");
  const auto trace = ImportHplTrace(in, HplImportOptions{});
  ASSERT_TRUE(trace.has_value());
  EXPECT_LT(trace->record(0).time_us, trace->record(1).time_us);
  EXPECT_EQ(trace->record(0).op, OpType::kWrite);
}

TEST(DiskSimImportTest, ParsesAndScalesBlocks) {
  // DiskSim 512-byte blocks into 1024-byte simulator blocks.
  std::istringstream in(
      "0.0 0 16 8 1\n"     // read, blocks 16..23 (512B) -> lba 8..11
      "10.5 0 100 4 0\n");  // write
  DiskSimImportOptions options;
  std::string error;
  const auto trace = ImportDiskSimTrace(in, options, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  ASSERT_EQ(trace->size(), 2u);
  EXPECT_EQ(trace->record(0).op, OpType::kRead);
  EXPECT_EQ(trace->record(0).lba, 8u);
  EXPECT_EQ(trace->record(0).block_count, 4u);
  EXPECT_EQ(trace->record(1).op, OpType::kWrite);
  EXPECT_EQ(trace->record(1).time_us, 10500);
}

// DiskSim sizes count 512-byte blocks, two to a 1 KiB simulator block.
TEST(DiskSimImportTest, RejectsASizePastTheBlockCount) {
  std::string error;
  std::istringstream widest("0.0 0 0 8589934590 0\n");
  const auto trace = ImportDiskSimTrace(widest, DiskSimImportOptions{}, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->record(0).block_count, 4294967295u);

  std::istringstream in(
      "0.0 0 0 2 1\n"
      "# a comment line still counts\n"
      "1.0 0 0 8589934592 0\n");
  EXPECT_FALSE(ImportDiskSimTrace(in, DiskSimImportOptions{}, &error).has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("size"), std::string::npos) << error;
}

TEST(DiskSimImportTest, RejectsATimestampOutOfRange) {
  std::string error;
  std::istringstream in(
      "0.0 0 0 2 1\n"
      "-1.0 0 0 2 1\n");
  EXPECT_FALSE(ImportDiskSimTrace(in, DiskSimImportOptions{}, &error).has_value());
  EXPECT_NE(error.find("disksim line 2: timestamp"), std::string::npos) << error;

  std::istringstream huge("1e16 0 0 2 1\n");  // 10^19 us
  EXPECT_FALSE(ImportDiskSimTrace(huge, DiskSimImportOptions{}, &error).has_value());
  EXPECT_NE(error.find("disksim line 1: timestamp"), std::string::npos) << error;
}

TEST(DiskSimImportTest, LocalityGroupsShareFileIds) {
  std::istringstream in(
      "0.0 0 0 2 1\n"
      "1.0 0 4 2 1\n"      // same 64-block neighbourhood
      "2.0 0 4000 2 1\n");  // far away
  const auto trace = ImportDiskSimTrace(in, DiskSimImportOptions{});
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->record(0).file_id, trace->record(1).file_id);
  EXPECT_NE(trace->record(0).file_id, trace->record(2).file_id);
}

}  // namespace
}  // namespace mobisim
