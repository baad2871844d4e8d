// The NAND/SSD device tier: striping arithmetic, the uFLIP response shapes
// the timing model must reproduce, the exact difference between the serial
// card timing and a card-shaped NAND, device-spec validation, name-normalized
// catalog lookups, and a mixed-traffic property sweep over the full catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config_text.h"
#include "src/device/device_catalog.h"
#include "src/device/log_flash_device.h"
#include "src/device/uflip.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

constexpr std::uint64_t kCapacity = 4 * 1024 * 1024;  // 32 erase blocks

std::unique_ptr<LogFlashDevice> MakeNand(const DeviceSpec& spec,
                                         std::uint64_t region_blocks,
                                         double utilization) {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = kCapacity;
  auto device = std::make_unique<LogFlashDevice>(spec, options);
  device->Preload(region_blocks, utilization, /*interleave=*/false);
  return device;
}

UflipStats RunPattern(const DeviceSpec& spec, UflipPattern pattern,
                      std::uint32_t blocks_per_op, double utilization,
                      std::uint32_t partitions = 4) {
  UflipParams params;
  params.ops = 256;
  params.blocks_per_op = blocks_per_op;
  params.region_blocks = 2048;
  params.partitions = partitions;
  auto device = MakeNand(spec, params.region_blocks, utilization);
  return RunUflipPattern(*device, pattern, params);
}

// ---- Striping arithmetic ---------------------------------------------------

TEST(NandSsdTest, TopologyCounts) {
  auto chip = MakeNand(NandChip(), 1024, 0.5);
  EXPECT_EQ(chip->nand_timing().channels(), 1u);
  EXPECT_EQ(chip->nand_timing().units(), 1u);

  auto ssd = MakeNand(NandSsd4ch(), 1024, 0.5);
  EXPECT_EQ(ssd->nand_timing().channels(), 4u);
  EXPECT_EQ(ssd->nand_timing().units(), 8u);  // 4 channels x 2 dies x 1 plane

  auto wide = MakeNand(NandSsd8ch(), 1024, 0.5);
  EXPECT_EQ(wide->nand_timing().channels(), 8u);
  EXPECT_EQ(wide->nand_timing().units(), 16u);
}

TEST(NandSsdTest, PagesForBytesRoundsUpToWholePages) {
  auto ssd = MakeNand(NandSsd4ch(), 1024, 0.5);  // 2-KB pages
  const StripedNandTiming& timing = ssd->nand_timing();
  EXPECT_EQ(timing.PagesForBytes(0), 0u);
  EXPECT_EQ(timing.PagesForBytes(1), 1u);
  EXPECT_EQ(timing.PagesForBytes(2048), 1u);
  EXPECT_EQ(timing.PagesForBytes(2049), 2u);
  EXPECT_EQ(timing.PagesForBytes(4096), 2u);
  EXPECT_EQ(timing.PagesForBytes(16384), 8u);
}

TEST(NandSsdTest, StripingIsRoundRobinAcrossDistinctChannels) {
  auto ssd = MakeNand(NandSsd4ch(), 1024, 0.5);
  const StripedNandTiming& timing = ssd->nand_timing();
  const std::vector<std::uint32_t> units = timing.StripeUnits(8);
  ASSERT_EQ(units.size(), 8u);
  for (std::uint32_t u = 0; u < 8; ++u) {
    EXPECT_EQ(units[u], u);
  }
  // Unit numbering is channel-major: consecutive pages land on distinct
  // channels until every channel is in flight.
  EXPECT_EQ(timing.ChannelOf(units[0]), 0u);
  EXPECT_EQ(timing.ChannelOf(units[1]), 1u);
  EXPECT_EQ(timing.ChannelOf(units[2]), 2u);
  EXPECT_EQ(timing.ChannelOf(units[3]), 3u);
  EXPECT_EQ(timing.ChannelOf(units[4]), 0u);

  // The cursor advances with issued pages and wraps modulo the unit count.
  BlockRecord rec;
  rec.time_us = 0;
  rec.op = OpType::kWrite;
  rec.lba = 0;
  rec.block_count = 6;  // 3 pages
  rec.file_id = 1;
  ssd->Write(0, rec);
  const std::vector<std::uint32_t> next = timing.StripeUnits(8);
  EXPECT_EQ(next[0], 3u);
  EXPECT_EQ(next[7], (3u + 7u) % 8u);
}

// ---- uFLIP response shapes -------------------------------------------------

TEST(NandSsdTest, UflipRandomWritePenalty) {
  // High utilization so cleaning engages: random overwrites scatter their
  // invalidations and force live-block copies; sequential overwrites leave
  // fully-dead victims behind.  Reads must not share the asymmetry.
  const UflipStats seq_w =
      RunPattern(NandSsd4ch(), UflipPattern::kSequentialWrite, 4, 0.9);
  const UflipStats rand_w =
      RunPattern(NandSsd4ch(), UflipPattern::kRandomWrite, 4, 0.9);
  EXPECT_GT(rand_w.mean_response_us, 1.25 * seq_w.mean_response_us);

  const UflipStats seq_r =
      RunPattern(NandSsd4ch(), UflipPattern::kSequentialRead, 4, 0.9);
  const UflipStats rand_r =
      RunPattern(NandSsd4ch(), UflipPattern::kRandomRead, 4, 0.9);
  EXPECT_LT(rand_r.mean_response_us, 1.5 * seq_r.mean_response_us);
}

TEST(NandSsdTest, UflipGranularityKneeAtPageSize) {
  // On the single-unit chip at low utilization the cost is pure cell timing:
  // half-page and full-page writes both program one page, and the cost
  // climbs once a request spans pages.
  const double half_page =
      RunPattern(NandChip(), UflipPattern::kSequentialWrite, 1, 0.5)
          .mean_response_us;
  const double one_page =
      RunPattern(NandChip(), UflipPattern::kSequentialWrite, 2, 0.5)
          .mean_response_us;
  const double two_pages =
      RunPattern(NandChip(), UflipPattern::kSequentialWrite, 4, 0.5)
          .mean_response_us;
  EXPECT_DOUBLE_EQ(half_page, one_page);
  EXPECT_GT(two_pages, 1.4 * one_page);
}

TEST(NandSsdTest, UflipParallelismScalesThenSaturates) {
  // The same 16-page read stream across channel counts (dies fixed at 2):
  // throughput must grow monotonically and with diminishing returns.
  std::vector<double> tp;
  for (const std::uint32_t channels : {1u, 4u, 8u, 16u}) {
    DeviceSpec spec = NandSsd4ch();
    spec.name = "nand-ssd-" + std::to_string(channels) + "ch";
    spec.nand.channels = channels;
    tp.push_back(RunPattern(spec, UflipPattern::kSequentialRead, 32, 0.5)
                     .throughput_kbps);
  }
  EXPECT_GT(tp[1], 2.0 * tp[0]);  // striping pays while pages queue
  EXPECT_GT(tp[2], tp[1]);
  EXPECT_GT(tp[3], tp[2]);
  EXPECT_LT(tp[3] / tp[2], tp[1] / tp[0]);  // ...and saturates
}

TEST(NandSsdTest, UflipPartitionsDegradeTowardRandom) {
  const double p1 =
      RunPattern(NandSsd4ch(), UflipPattern::kPartitionedWrite, 4, 0.9, 1)
          .mean_response_us;
  const double p16 =
      RunPattern(NandSsd4ch(), UflipPattern::kPartitionedWrite, 4, 0.9, 16)
          .mean_response_us;
  EXPECT_GT(p16, p1);
}

// ---- Serial card timing vs. a card-shaped NAND -----------------------------

// A 1x1x1 NAND shaped like `card`: its page is the logical block, its erase
// block is the card's erase segment, tR and tPROG move one block at the
// card's read and write rates, tBERS is the card's segment erase, and the
// bus is fast enough that a page transfer truncates to 0 us.  Cleaning
// copies, erases and the mount scan then cost exactly what the card charges.
DeviceSpec CardShapedNand(const DeviceSpec& card, std::uint32_t block_bytes) {
  DeviceSpec s = card;
  s.name = "card-shaped-nand";
  s.kind = DeviceKind::kNandSsd;
  s.nand.channels = 1;
  s.nand.dies_per_channel = 1;
  s.nand.planes_per_die = 1;
  s.nand.page_bytes = block_bytes;
  s.nand.pages_per_block = card.erase_segment_bytes / block_bytes;
  s.nand.read_page_us = static_cast<double>(TransferTimeUs(block_bytes, card.read_kbps));
  s.nand.program_page_us = static_cast<double>(TransferTimeUs(block_bytes, card.write_kbps));
  s.nand.erase_block_ms = card.erase_ms_per_segment;
  s.nand.channel_mbps = 1e9;
  return s;
}

TEST(CardVsNandTimingTest, SameMappingAndPinnedTimingDifference) {
  constexpr std::uint32_t kBlock = 1024;
  DeviceOptions options;
  options.block_bytes = kBlock;
  options.capacity_bytes = 2 * 1024 * 1024;  // 16 erase segments
  const DeviceSpec card_spec = IntelCardDatasheet();
  LogFlashDevice card(card_spec, options);
  LogFlashDevice nand(CardShapedNand(card_spec, kBlock), options);
  for (LogFlashDevice* device : {&card, &nand}) {
    device->Preload(1024, 0.85, /*interleave=*/true);
  }
  EXPECT_EQ(card.timing().costs().block_copy_us, nand.timing().costs().block_copy_us);
  EXPECT_EQ(card.timing().costs().erase_us, nand.timing().costs().erase_us);
  EXPECT_EQ(card.timing().costs().mount_scan_us, nand.timing().costs().mount_scan_us);

  // Bursts of one-block requests arriving at one instant, 30 s apart: every
  // cleaning job started in a burst finishes in the idle gap on both
  // devices, so their mappings evolve in lockstep.
  const SimTime read_us = TransferTimeUs(kBlock, card_spec.read_kbps);
  const SimTime write_us = TransferTimeUs(kBlock, card_spec.write_kbps);
  // The remaining difference, modelled exactly.  The card serializes a
  // synchronous cleaning stall behind the work already queued on it.  The
  // NAND charges the stall to its command track, which a write frees as
  // soon as its payload is on the bus, so the track runs ahead of the one
  // plane's queue and the stall overlaps programs still queued from earlier
  // writes of the burst.
  SimTime card_busy = 0;
  SimTime nand_cmd = 0;
  SimTime nand_bus = 0;
  SimTime nand_busy = 0;
  std::uint64_t differing = 0;
  Rng rng(41);
  SimTime now = 0;
  for (int burst = 0; burst < 40; ++burst) {
    now += 30 * kUsPerSec;
    const std::int64_t ops = rng.UniformInt(1, 400);
    for (std::int64_t i = 0; i < ops; ++i) {
      BlockRecord rec;
      rec.time_us = now;
      rec.block_count = 1;
      rec.lba = static_cast<std::uint64_t>(rng.UniformInt(0, 1023));
      rec.file_id = static_cast<std::uint32_t>(rng.UniformInt(0, 20));
      const double roll = rng.NextDouble();
      if (roll >= 0.95) {
        rec.op = OpType::kErase;
        card.Trim(now, rec);
        nand.Trim(now, rec);
        continue;
      }
      rec.op = roll < 0.3 ? OpType::kRead : OpType::kWrite;
      const SimTime stall_before = card.counters().stall_time_us;
      const SimTime card_response =
          rec.op == OpType::kRead ? card.Read(now, rec) : card.Write(now, rec);
      const SimTime nand_response =
          rec.op == OpType::kRead ? nand.Read(now, rec) : nand.Write(now, rec);
      const SimTime stall = card.counters().stall_time_us - stall_before;
      const SimTime service = rec.op == OpType::kRead ? read_us : write_us;

      card_busy = std::max(now, card_busy) + stall + service;
      const SimTime issue = std::max(now, nand_cmd) + stall;
      if (rec.op == OpType::kRead) {
        nand_cmd = issue;
        nand_busy = std::max(issue, nand_busy) + service;
        nand_bus = nand_busy;
      } else {
        nand_bus = std::max(issue, nand_bus);
        nand_cmd = nand_bus;
        nand_busy = std::max(nand_bus, nand_busy) + service;
      }
      ASSERT_EQ(card_response, card_busy - now);
      ASSERT_EQ(nand_response, nand_busy - now);
      differing += card_response != nand_response ? 1 : 0;
    }
  }
  const DeviceCounters& c = card.counters();
  const DeviceCounters& n = nand.counters();
  EXPECT_GT(c.clean_jobs, 0u);
  EXPECT_GT(c.write_stalls, 0u);
  EXPECT_GT(differing, 0u);
  EXPECT_EQ(c.segment_erases, n.segment_erases);
  EXPECT_EQ(c.blocks_copied, n.blocks_copied);
  EXPECT_EQ(c.clean_jobs, n.clean_jobs);
  EXPECT_EQ(c.write_stalls, n.write_stalls);
  EXPECT_EQ(c.stall_time_us, n.stall_time_us);

  // Multi-block requests add per-page transfer granularity: the card moves
  // the whole request at its byte rate, the NAND programs it page by page,
  // each page's time truncated to whole microseconds.
  now += 30 * kUsPerSec;
  BlockRecord rec;
  rec.time_us = now;
  rec.op = OpType::kWrite;
  rec.lba = 0;
  rec.block_count = 8;
  rec.file_id = 99;
  ASSERT_LE(card.busy_until(), now);
  ASSERT_LE(nand.busy_until(), now);
  EXPECT_EQ(card.Write(now, rec), TransferTimeUs(8 * kBlock, card_spec.write_kbps));
  EXPECT_EQ(nand.Write(now, rec), 8 * write_us);
}

// ---- Spec validation -------------------------------------------------------

std::string ValidationError(const DeviceSpec& spec, const DeviceOptions& options) {
  try {
    ValidateDeviceSpec(spec, options);
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(ValidateDeviceSpecTest, AcceptsEveryCatalogSpec) {
  DeviceOptions options;
  for (const DeviceSpec& spec : AllDeviceSpecs()) {
    EXPECT_EQ(ValidationError(spec, options), "") << spec.name;
  }
}

TEST(ValidateDeviceSpecTest, NamesTheOffendingField) {
  DeviceOptions options;

  DeviceSpec spec = IntelCardDatasheet();
  spec.read_kbps = 0.0;
  EXPECT_NE(ValidationError(spec, options).find("read_kbps"), std::string::npos);

  spec = IntelCardDatasheet();
  spec.write_kbps = -1.0;
  EXPECT_NE(ValidationError(spec, options).find("write_kbps"), std::string::npos);

  spec = IntelCardDatasheet();
  spec.erase_segment_bytes = 0;
  EXPECT_NE(ValidationError(spec, options).find("erase_segment_bytes"),
            std::string::npos);

  // Decoupled erasure (SDP5A) needs an erase rate to run its erase pass.
  spec = Sdp5aDatasheet();
  spec.erase_kbps = 0.0;
  EXPECT_NE(ValidationError(spec, options).find("erase_kbps"), std::string::npos);

  spec = Cu140Datasheet();
  spec.read_overhead_ms = std::nan("");
  EXPECT_NE(ValidationError(spec, options).find("read_overhead_ms"),
            std::string::npos);

  options.block_bytes = 0;
  EXPECT_NE(ValidationError(Cu140Datasheet(), options).find("block_bytes"),
            std::string::npos);
  options.block_bytes = 1024;

  // Disks do not erase: a zero segment size must only be rejected for
  // flash-class devices.
  spec = Cu140Datasheet();
  spec.erase_segment_bytes = 0;
  EXPECT_EQ(ValidationError(spec, options), "");
}

TEST(ValidateDeviceSpecTest, NandTopologyFieldsAreChecked) {
  DeviceOptions options;

  DeviceSpec spec = NandSsd4ch();
  spec.nand.channels = 0;
  EXPECT_NE(ValidationError(spec, options).find("nand.channels"), std::string::npos);

  spec = NandSsd4ch();
  spec.nand.read_page_us = 0.0;
  EXPECT_NE(ValidationError(spec, options).find("nand.read_us"), std::string::npos);

  spec = NandSsd4ch();
  spec.nand.channel_mbps = -40.0;
  EXPECT_NE(ValidationError(spec, options).find("nand.channel_mbps"),
            std::string::npos);

  // The GC erase unit must stay equal to the NAND erase block.
  spec = NandSsd4ch();
  spec.nand.pages_per_block = 32;  // halves block_bytes() without updating it
  EXPECT_NE(ValidationError(spec, options).find("erase_segment_bytes"),
            std::string::npos);
}

TEST(ValidateDeviceSpecTest, DiskGeometryFieldsAreChecked) {
  DeviceOptions options;
  options.geometry_timing = true;
  const std::pair<const char*, void (*)(DiskGeometry*)> cases[] = {
      {"geometry.cylinders", [](DiskGeometry* g) { g->cylinders = 0; }},
      {"geometry.heads", [](DiskGeometry* g) { g->heads = 0; }},
      {"geometry.sectors_per_track", [](DiskGeometry* g) { g->sectors_per_track = 0; }},
      {"geometry.sector_bytes", [](DiskGeometry* g) { g->sector_bytes = 0; }},
      {"geometry.rpm", [](DiskGeometry* g) { g->rpm = 0.0; }},
      {"geometry.rpm", [](DiskGeometry* g) { g->rpm = std::nan(""); }},
  };
  for (const auto& [field, breaks] : cases) {
    DeviceSpec spec = KittyhawkDatasheet();
    breaks(&spec.geometry);
    EXPECT_NE(ValidationError(spec, options).find(field), std::string::npos) << field;
  }

  // The geometry is read only by a disk on its geometry timing: a disk
  // without one is fine on average costs, and flash never reads it.
  DeviceSpec spec = Cu140Datasheet();
  spec.geometry = DiskGeometry{};
  EXPECT_NE(ValidationError(spec, options).find("geometry.cylinders"), std::string::npos);
  EXPECT_EQ(ValidationError(spec, DeviceOptions{}), "");
  EXPECT_EQ(ValidationError(Sdp5Datasheet(), options), "");
}

TEST(ValidateDeviceSpecTest, ConstructorsRejectMalformedSpecs) {
  DeviceOptions options;
  options.capacity_bytes = kCapacity;
  DeviceSpec spec = NandSsd4ch();
  spec.nand.dies_per_channel = 0;
  EXPECT_THROW(LogFlashDevice(spec, options), SimError);

  DeviceSpec card = IntelCardDatasheet();
  card.erase_ms_per_segment = 0.0;
  EXPECT_THROW(LogFlashDevice(card, options), SimError);

  DeviceSpec disk = Cu140Datasheet();
  disk.geometry.heads = 0;
  options.geometry_timing = true;
  EXPECT_THROW(CreateDevice(disk, options), SimError);
}

// ---- Name-normalized catalog lookups ---------------------------------------

TEST(DeviceLookupTest, UnderscoreDashAndCaseResolveIdentically) {
  const auto canonical = DeviceByName("nand-ssd-4ch");
  ASSERT_TRUE(canonical.has_value());
  for (const char* alias : {"nand_ssd_4ch", "NAND-SSD-4CH", " nand-ssd-4ch "}) {
    const auto spec = DeviceByName(alias);
    ASSERT_TRUE(spec.has_value()) << alias;
    EXPECT_EQ(spec->name, canonical->name) << alias;
  }
  EXPECT_TRUE(DeviceByName("intel_datasheet").has_value());
  EXPECT_TRUE(DeviceByName("intel-datasheet").has_value());
  EXPECT_FALSE(DeviceByName("no-such-device").has_value());
}

TEST(DeviceLookupTest, EveryCatalogSpecHasAKindName) {
  for (const DeviceSpec& spec : AllDeviceSpecs()) {
    EXPECT_STRNE(DeviceKindName(spec.kind), "") << spec.name;
  }
  EXPECT_STREQ(DeviceKindName(DeviceKind::kNandSsd), "nand-ssd");
}

// ---- Catalog-wide mixed-traffic property sweep -----------------------------

std::unique_ptr<StorageDevice> MakeAnyDevice(const DeviceSpec& spec) {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 8 * 1024 * 1024;
  std::unique_ptr<StorageDevice> device = CreateDevice(spec, options);
  device->Preload(1024, 0.7, /*interleave=*/true);
  return device;
}

TEST(DeviceCatalogPropertyTest, MixedTrafficInvariantsHoldForEverySpec) {
  for (const DeviceSpec& spec : AllDeviceSpecs()) {
    SCOPED_TRACE(spec.name);
    auto device = MakeAnyDevice(spec);
    Rng rng(29);
    SimTime now = 0;
    SimTime last_busy = 0;
    double last_joules = 0.0;

    for (int i = 0; i < 400; ++i) {
      now += static_cast<SimTime>(rng.Exponential(150000.0));
      BlockRecord rec;
      rec.time_us = now;
      rec.block_count = static_cast<std::uint32_t>(rng.UniformInt(1, 8));
      rec.lba = static_cast<std::uint64_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(1024 - rec.block_count)));
      rec.file_id = static_cast<std::uint32_t>(rng.UniformInt(0, 20));

      const double roll = rng.NextDouble();
      SimTime response = 0;
      if (roll < 0.45) {
        rec.op = OpType::kRead;
        response = device->Read(now, rec);
      } else if (roll < 0.9) {
        rec.op = OpType::kWrite;
        response = device->Write(now, rec);
      } else {
        rec.op = OpType::kErase;
        device->Trim(now, rec);
      }

      // Finite, non-negative service times; trims are instantaneous.
      ASSERT_GE(response, 0);
      ASSERT_LT(response, UsFromSec(600));

      // busy_until never regresses (only PowerLoss may truncate it) and
      // accounting only ever adds energy.
      ASSERT_GE(device->busy_until(), last_busy);
      last_busy = device->busy_until();
      device->AdvanceTo(now);
      const double joules = device->energy().total_joules();
      ASSERT_GE(joules, last_joules);
      last_joules = joules;
    }

    device->Finish(std::max(now, device->busy_until()));
    EXPECT_GE(device->energy().total_joules(), last_joules);
    EXPECT_GT(device->counters().reads, 0u);
    EXPECT_GT(device->counters().writes, 0u);
  }
}

}  // namespace
}  // namespace mobisim
