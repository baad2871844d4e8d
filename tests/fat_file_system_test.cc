// Tests for the FAT file-system substrate.
#include <gtest/gtest.h>

#include <set>

#include "src/fs/fat_file_system.h"

namespace mobisim {
namespace {

FatConfig SmallConfig() {
  FatConfig config;
  config.capacity_bytes = 1024 * 1024;  // 1024 blocks of 1 KB
  config.block_bytes = 1024;
  return config;
}

TraceRecord Rec(SimTime t, OpType op, std::uint32_t file, std::uint64_t offset,
                std::uint32_t size) {
  TraceRecord rec;
  rec.time_us = t;
  rec.op = op;
  rec.file_id = file;
  rec.offset = offset;
  rec.size_bytes = size;
  return rec;
}

Trace MakeTrace(std::vector<TraceRecord> records) {
  Trace trace;
  trace.name = "t";
  trace.block_bytes = 1024;
  trace.records = std::move(records);
  return trace;
}

TEST(FatLayoutTest, RegionsAreDisjointAndOrdered) {
  FatFileSystem fs(SmallConfig());
  EXPECT_EQ(fs.fat_begin(), 1u);
  EXPECT_GT(fs.fat_blocks(), 0u);
  EXPECT_EQ(fs.dir_begin(), 1 + fs.fat_blocks());
  EXPECT_EQ(fs.data_begin(), fs.dir_begin() + fs.dir_blocks());
  EXPECT_LT(fs.data_begin(), fs.total_blocks());
  // Two FAT copies of 16-bit entries covering ~1024 clusters: 2 blocks each.
  EXPECT_EQ(fs.fat_blocks(), 4u);
}

TEST(FatLowerTest, CreateEmitsMetadataThenData) {
  FatFileSystem fs(SmallConfig());
  const TraceView out = fs.Lower(MakeTrace({Rec(0, OpType::kWrite, 1, 0, 4096)}));
  // Expected: FAT writes (chain) + data write + dir write.
  EXPECT_GT(fs.stats().fat_blocks_written, 0u);
  EXPECT_EQ(fs.stats().dir_blocks_written, 2u);  // create + per-write update
  EXPECT_EQ(fs.stats().data_blocks_written, 4u);
  EXPECT_EQ(fs.stats().files_created, 1u);
  EXPECT_EQ(out.name(), "t+fat");
  EXPECT_EQ(out.block_bytes(), 1024u);
  EXPECT_EQ(out.total_blocks(), fs.total_blocks());
  // Data lands in the data region, metadata before it.
  bool saw_data = false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const BlockRecord rec = out.record(i);
    if (rec.file_id == 1) {
      saw_data = true;
      EXPECT_GE(rec.lba, fs.data_begin());
    } else {
      EXPECT_LT(rec.lba, fs.data_begin());
    }
  }
  EXPECT_TRUE(saw_data);
}

TEST(FatLowerTest, PreexistingFilesReadWithoutMetadata) {
  FatFileSystem fs(SmallConfig());
  const TraceView out = fs.Lower(MakeTrace({Rec(0, OpType::kRead, 1, 0, 4096)}));
  EXPECT_EQ(fs.stats().fat_blocks_written, 0u);
  EXPECT_EQ(fs.stats().dir_blocks_written, 0u);
  EXPECT_EQ(fs.stats().data_blocks_read, 4u);
  EXPECT_EQ(out.size(), 1u);  // contiguous fresh allocation: one run
}

TEST(FatLowerTest, ContiguousFileReadsAsOneRun) {
  FatFileSystem fs(SmallConfig());
  const TraceView out = fs.Lower(MakeTrace({
      Rec(0, OpType::kRead, 1, 0, 16 * 1024),
  }));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.record(0).block_count, 16u);
}

TEST(FatLowerTest, DeleteFreesAndReuseFragments) {
  FatFileSystem fs(SmallConfig());
  // Three files, delete the middle one, then create a file larger than the
  // hole: its clusters must fragment (hole + fresh area).
  const TraceView out = fs.Lower(MakeTrace({
      Rec(0, OpType::kWrite, 1, 0, 8 * 1024),
      Rec(1, OpType::kWrite, 2, 0, 8 * 1024),
      Rec(2, OpType::kWrite, 3, 0, 8 * 1024),
      Rec(3, OpType::kErase, 2, 0, 0),
      Rec(4, OpType::kWrite, 4, 0, 16 * 1024),
  }));
  (void)out;
  EXPECT_EQ(fs.stats().files_deleted, 1u);
  const auto clusters = fs.FileClusters(4);
  ASSERT_EQ(clusters.size(), 16u);
  // Next-fit starts after file 3, reaches the end region, and wraps into
  // file 2's freed hole only when needed; either way the chain cannot be
  // fully contiguous once it spans the hole boundary.
  bool contiguous = true;
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    contiguous &= clusters[i] == clusters[i - 1] + 1;
  }
  EXPECT_GE(fs.stats().mean_extents_per_file, 1.0);
  EXPECT_EQ(fs.free_clusters(), (1024 - fs.data_begin()) - 8 - 8 - 16);
  (void)contiguous;
}

TEST(FatLowerTest, RecreationAfterDeleteAllocatesAgain) {
  FatFileSystem fs(SmallConfig());
  fs.Lower(MakeTrace({
      Rec(0, OpType::kWrite, 1, 0, 4096),
      Rec(1, OpType::kErase, 1, 0, 0),
  }));
  const std::uint64_t fat_before = fs.stats().fat_blocks_written;
  fs.Lower(MakeTrace({Rec(2, OpType::kWrite, 1, 0, 4096)}));
  EXPECT_GT(fs.stats().fat_blocks_written, fat_before);
  EXPECT_EQ(fs.FileClusters(1).size(), 4u);
}

TEST(FatLowerTest, FatWritesHitSmallFixedRegion) {
  // The classic flash-killer: all allocation traffic lands on a handful of
  // FAT blocks.
  FatFileSystem fs(SmallConfig());
  std::vector<TraceRecord> records;
  for (std::uint32_t f = 0; f < 50; ++f) {
    records.push_back(Rec(f, OpType::kWrite, 100 + f, 0, 4096));
  }
  const TraceView out = fs.Lower(MakeTrace(std::move(records)));
  std::set<std::uint64_t> fat_lbas;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const BlockRecord rec = out.record(i);
    if (rec.lba >= fs.fat_begin() && rec.lba < fs.fat_begin() + fs.fat_blocks()) {
      fat_lbas.insert(rec.lba);
    }
  }
  EXPECT_LE(fat_lbas.size(), fs.fat_blocks());
  EXPECT_GE(fs.stats().fat_blocks_written, 100u);  // many writes...
  EXPECT_LE(fat_lbas.size(), 4u);                  // ...to at most 4 blocks
}

TEST(FatLowerTest, MetadataShareGrowsWithSmallWrites) {
  // Small writes pay proportionally more metadata than large ones.
  FatFileSystem small_fs(SmallConfig());
  FatFileSystem large_fs(SmallConfig());
  std::vector<TraceRecord> small_records;
  std::vector<TraceRecord> large_records;
  for (std::uint32_t i = 0; i < 32; ++i) {
    small_records.push_back(Rec(i, OpType::kWrite, 1, i * 1024, 1024));
    large_records.push_back(Rec(i, OpType::kWrite, 1, i * 8192, 8192));
  }
  small_fs.Lower(MakeTrace(std::move(small_records)));
  large_fs.Lower(MakeTrace(std::move(large_records)));
  const double small_share =
      static_cast<double>(small_fs.stats().metadata_blocks_written()) /
      static_cast<double>(small_fs.stats().data_blocks_written);
  const double large_share =
      static_cast<double>(large_fs.stats().metadata_blocks_written()) /
      static_cast<double>(large_fs.stats().data_blocks_written);
  EXPECT_GT(small_share, large_share);
}

TEST(FatLowerTest, TimesPreserved) {
  FatFileSystem fs(SmallConfig());
  const TraceView out = fs.Lower(MakeTrace({
      Rec(1000, OpType::kWrite, 1, 0, 2048),
      Rec(2000, OpType::kRead, 1, 0, 2048),
  }));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const BlockRecord rec = out.record(i);
    EXPECT_TRUE(rec.time_us == 1000 || rec.time_us == 2000);
  }
}

}  // namespace
}  // namespace mobisim
