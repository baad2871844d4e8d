// uFLIP validation of the NAND/SSD device tier (Bouganim/Jonsson/Bonnet).
//
// Runs the benchmark's core micro-patterns -- sequential/random/strided
// reads and writes, a request-granularity sweep, partitioned random writes,
// and the same pattern across channel counts -- against the parameterized
// NAND devices, and asserts the response-time *shapes* the original
// benchmark established for flash devices:
//
//   1. random writes cost more than sequential writes (GC copy traffic),
//      while random reads cost about the same as sequential reads;
//   2. request cost has a knee at the page size: sub-page requests cost one
//      full page, and cost grows once requests span multiple pages;
//   3. striped throughput grows with channel count and saturates once the
//      request's pages no longer queue behind each other.
//
// Shape violations throw (MOBISIM_CHECK), which the registry turns into an
// `_error` row -- so CI's bench-smoke leg gates on these invariants.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/device/device_catalog.h"
#include "src/device/log_flash_device.h"
#include "src/device/uflip.h"
#include "src/runner/bench_registry.h"
#include "src/util/check.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

constexpr std::uint32_t kBlockBytes = 1024;

// A fresh preloaded device per measurement: uFLIP prescribes independent
// runs so device history does not bleed between patterns.
std::unique_ptr<LogFlashDevice> MakeDevice(const DeviceSpec& spec,
                                           std::uint64_t capacity_bytes,
                                           std::uint64_t region_blocks,
                                           double utilization) {
  DeviceOptions options;
  options.block_bytes = kBlockBytes;
  options.capacity_bytes = capacity_bytes;
  auto device = std::make_unique<LogFlashDevice>(spec, options);
  // No interleaved filler: the pattern region occupies whole erase blocks,
  // so sequential overwrites produce fully-dead victims (the cheap case the
  // random-write penalty is measured against).
  device->Preload(region_blocks, utilization, /*interleave=*/false);
  return device;
}

double MbPerSec(const UflipStats& stats) { return stats.throughput_kbps / 1024.0; }

void Run(BenchContext& ctx) {
  // High-utilization device for the pattern matrix: small enough that even
  // the smoke run's write volume exceeds the free pool, so cleaning engages
  // and the random-write penalty is exercised, not just the cell timings.
  const std::uint64_t capacity = 4 * 1024 * 1024;  // 32 erase blocks
  const std::uint64_t region_blocks = 2048;        // 16 erase blocks
  const double utilization = 0.9;
  const std::uint64_t ops = ctx.smoke() ? 160 : 640;

  std::printf("== uFLIP micro-patterns on the NAND device tier ==\n");
  std::printf("closed loop, %llu ops x 4 KB, %llu-block region, utilization %.2f\n\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(region_blocks), utilization);

  // ---- Pattern x device matrix -------------------------------------------
  const DeviceSpec devices[] = {NandChip(), NandSsd4ch(), NandSsd8ch()};
  const UflipPattern patterns[] = {
      UflipPattern::kSequentialRead,  UflipPattern::kRandomRead,
      UflipPattern::kStridedRead,     UflipPattern::kSequentialWrite,
      UflipPattern::kRandomWrite,     UflipPattern::kStridedWrite,
      UflipPattern::kPartitionedWrite,
  };

  TablePrinter matrix({"Device", "Pattern", "Mean (us)", "Max (us)", "MB/s"});
  for (const DeviceSpec& spec : devices) {
    UflipStats seq_read, rand_read, seq_write, rand_write;
    for (const UflipPattern pattern : patterns) {
      UflipParams params;
      params.ops = ops;
      params.blocks_per_op = 4;
      params.region_blocks = region_blocks;
      params.block_bytes = kBlockBytes;
      auto device = MakeDevice(spec, capacity, region_blocks, utilization);
      const UflipStats stats = RunUflipPattern(*device, pattern, params);

      matrix.BeginRow()
          .Cell(spec.name)
          .Cell(std::string(UflipPatternName(pattern)))
          .Cell(stats.mean_response_us, 1)
          .Cell(static_cast<double>(stats.max_response_us), 0)
          .Cell(MbPerSec(stats), 1);
      ResultRow row;
      row.AddText("section", "patterns");
      row.AddText("device", spec.name);
      row.AddText("pattern", UflipPatternName(pattern));
      row.AddNumber("ops", static_cast<double>(stats.ops));
      row.AddNumber("mean_us", stats.mean_response_us);
      row.AddNumber("max_us", static_cast<double>(stats.max_response_us));
      row.AddNumber("mb_per_sec", MbPerSec(stats));
      ctx.Emit(std::move(row));

      switch (pattern) {
        case UflipPattern::kSequentialRead: seq_read = stats; break;
        case UflipPattern::kRandomRead: rand_read = stats; break;
        case UflipPattern::kSequentialWrite: seq_write = stats; break;
        case UflipPattern::kRandomWrite: rand_write = stats; break;
        default: break;
      }
    }
    // Shape 1: the write asymmetry is there and reads do not share it.
    MOBISIM_CHECK(rand_write.mean_response_us >
                      1.25 * seq_write.mean_response_us &&
                  "uFLIP shape: random writes must cost more than sequential");
    MOBISIM_CHECK(rand_read.mean_response_us <
                      3.0 * seq_read.mean_response_us &&
                  "uFLIP shape: random reads must cost about the same as sequential");
  }
  matrix.Print(std::cout);

  // ---- Granularity sweep (shape 2) ---------------------------------------
  // Single-unit chip at low utilization: no cleaning, pure cell timings.
  // The page is 2 KB = 2 logical blocks, so 1- and 2-block requests must
  // cost the same (both program one page) and the cost climbs past that.
  std::printf("\n-- request-granularity sweep (nand-chip, writes) --\n");
  const std::uint64_t gran_ops = ctx.smoke() ? 64 : 256;
  TablePrinter gran({"Request (KB)", "Pages", "Mean (us)", "us/KB"});
  std::vector<double> gran_mean;
  for (const std::uint32_t blocks : {1u, 2u, 4u, 8u, 16u}) {
    UflipParams params;
    params.ops = gran_ops;
    params.blocks_per_op = blocks;
    params.region_blocks = 2048;
    params.block_bytes = kBlockBytes;
    auto device = MakeDevice(NandChip(), capacity, params.region_blocks, 0.5);
    const UflipStats stats =
        RunUflipPattern(*device, UflipPattern::kSequentialWrite, params);
    const double kb = static_cast<double>(blocks) * kBlockBytes / 1024.0;
    gran.BeginRow()
        .Cell(kb, 0)
        .Cell(static_cast<double>(device->nand_timing().PagesForBytes(
                  static_cast<std::uint64_t>(blocks) * kBlockBytes)), 0)
        .Cell(stats.mean_response_us, 1)
        .Cell(stats.mean_response_us / kb, 1);
    ResultRow row;
    row.AddText("section", "granularity");
    row.AddText("device", "nand-chip");
    row.AddNumber("request_kb", kb);
    row.AddNumber("mean_us", stats.mean_response_us);
    row.AddNumber("mb_per_sec", MbPerSec(stats));
    ctx.Emit(std::move(row));
    gran_mean.push_back(stats.mean_response_us);
  }
  gran.Print(std::cout);
  MOBISIM_CHECK(gran_mean[1] < 1.10 * gran_mean[0] &&
                gran_mean[0] < 1.10 * gran_mean[1] &&
                "uFLIP shape: sub-page requests must cost one full page");
  MOBISIM_CHECK(gran_mean[2] > 1.4 * gran_mean[1] &&
                "uFLIP shape: cost must climb once requests span pages");

  // ---- Parallelism sweep (shape 3) ---------------------------------------
  // The same 32-KB sequential-read stream across channel counts, dies fixed
  // at 2: throughput must grow with channels and show diminishing returns
  // once the 16 pages of a request stop queueing behind each other.
  std::printf("\n-- channel-parallelism sweep (16-page reads, 2 dies/channel) --\n");
  const std::uint64_t par_ops = ctx.smoke() ? 64 : 256;
  TablePrinter par({"Channels", "Units", "Mean (us)", "MB/s"});
  std::vector<double> par_tp;
  for (const std::uint32_t channels : {1u, 2u, 4u, 8u, 16u}) {
    DeviceSpec spec = NandSsd4ch();
    spec.name = "nand-ssd-" + std::to_string(channels) + "ch";
    spec.nand.channels = channels;
    UflipParams params;
    params.ops = par_ops;
    params.blocks_per_op = 32;  // 16 pages
    params.region_blocks = 2048;
    params.block_bytes = kBlockBytes;
    auto device = MakeDevice(spec, capacity, params.region_blocks, 0.5);
    const UflipStats stats =
        RunUflipPattern(*device, UflipPattern::kSequentialRead, params);
    par.BeginRow()
        .Cell(static_cast<double>(channels), 0)
        .Cell(static_cast<double>(device->nand_timing().units()), 0)
        .Cell(stats.mean_response_us, 1)
        .Cell(MbPerSec(stats), 1);
    ResultRow row;
    row.AddText("section", "parallelism");
    row.AddText("device", spec.name);
    row.AddNumber("channels", static_cast<double>(channels));
    row.AddNumber("mean_us", stats.mean_response_us);
    row.AddNumber("mb_per_sec", MbPerSec(stats));
    ctx.Emit(std::move(row));
    par_tp.push_back(MbPerSec(stats));
  }
  par.Print(std::cout);
  for (std::size_t i = 1; i < par_tp.size(); ++i) {
    MOBISIM_CHECK(par_tp[i] >= par_tp[i - 1] &&
                  "uFLIP shape: throughput must not drop with more channels");
  }
  MOBISIM_CHECK(par_tp[2] > 2.0 * par_tp[0] &&
                "uFLIP shape: striping must scale while pages queue");
  MOBISIM_CHECK(par_tp[4] / par_tp[3] < par_tp[2] / par_tp[0] &&
                "uFLIP shape: throughput must saturate with channel count");

  // ---- Partitioned random writes -----------------------------------------
  // uFLIP's partitioning pattern: random choice among p sequential cursors.
  // p = 1 is a sequential stream; as p grows the stream degrades toward the
  // random-write case.
  std::printf("\n-- partitioned writes (nand-ssd-4ch) --\n");
  TablePrinter part({"Partitions", "Mean (us)", "MB/s"});
  std::vector<double> part_mean;
  for (const std::uint32_t partitions : {1u, 2u, 4u, 8u, 16u}) {
    UflipParams params;
    params.ops = ops;
    params.blocks_per_op = 4;
    params.region_blocks = region_blocks;
    params.partitions = partitions;
    params.block_bytes = kBlockBytes;
    auto device = MakeDevice(NandSsd4ch(), capacity, region_blocks, utilization);
    const UflipStats stats =
        RunUflipPattern(*device, UflipPattern::kPartitionedWrite, params);
    part.BeginRow()
        .Cell(static_cast<double>(partitions), 0)
        .Cell(stats.mean_response_us, 1)
        .Cell(MbPerSec(stats), 1);
    ResultRow row;
    row.AddText("section", "partitioned");
    row.AddText("device", "nand-ssd-4ch");
    row.AddNumber("partitions", static_cast<double>(partitions));
    row.AddNumber("mean_us", stats.mean_response_us);
    row.AddNumber("mb_per_sec", MbPerSec(stats));
    ctx.Emit(std::move(row));
    part_mean.push_back(stats.mean_response_us);
  }
  part.Print(std::cout);
  MOBISIM_CHECK(part_mean.back() > part_mean.front() &&
                "uFLIP shape: more partitions must degrade toward random writes");
}

REGISTER_BENCH(uflip)({
    .name = "uflip",
    .description = "uFLIP micro-patterns validating the NAND/SSD timing model",
    .source = "uFLIP (Bouganim et al.)",
    .dims = "pattern{seq,rand,stride,part} x device{chip,4ch,8ch} x size x channels",
    .uses_scale = false,
    .run = Run,
});

}  // namespace
}  // namespace mobisim
