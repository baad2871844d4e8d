// Related system (section 6): flash memory as a cache for disk blocks
// (Marsh, Douglis & Krishnan, HICSS '94).  A flash card between the DRAM
// cache and the disk absorbs reads and writes so the disk can stay spun
// down; this bench sweeps the flash cache size and compares against the
// plain disk and the all-flash organizations.
//
// The disk baselines and the all-flash upper bound are plain simulator
// configurations, so they run as one engine batch up front; the flash-cache
// organizations use src/fcache directly and emit their rows by hand.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/fcache/flash_cache_system.h"
#include "src/runner/bench_registry.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

struct RunStats {
  double energy_j = 0.0;
  double read_ms = 0.0;
  double write_ms = 0.0;
  std::uint64_t spinups = 0;
  double flash_hit_rate = 0.0;
};

RunStats RunFlashCache(const TraceView& trace, std::uint64_t flash_bytes,
                       std::uint64_t dram_bytes, SimTime spin_down_us) {
  FlashCacheConfig config;
  config.flash_bytes = flash_bytes;
  config.dram_bytes = dram_bytes;
  config.block_bytes = trace.block_bytes();
  config.spin_down_after_us = spin_down_us;
  config.disk_capacity_bytes =
      std::max<std::uint64_t>(trace.total_bytes(), 40ull * 1024 * 1024);
  FlashCacheSystem system(config);

  RunningStats reads;
  RunningStats writes;
  const std::uint64_t warm = trace.size() / 10;
  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    const BlockRecord rec = trace.record(i);
    const SimTime response = system.Handle(rec);
    if (i >= warm) {
      if (rec.op == OpType::kRead) {
        reads.Add(MsFromUs(response));
      } else if (rec.op == OpType::kWrite) {
        writes.Add(MsFromUs(response));
      }
    }
  }
  system.Finish(trace.times()[trace.size() - 1]);

  RunStats stats;
  stats.energy_j = system.total_energy_j();
  stats.read_ms = reads.mean();
  stats.write_ms = writes.mean();
  stats.spinups = system.disk_counters().spinups;
  const std::uint64_t lookups = system.flash_hits() + system.flash_misses();
  stats.flash_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(system.flash_hits()) / static_cast<double>(lookups);
  return stats;
}

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Related system: flash as a disk-block cache (scale %.2f) ==\n", scale);
  std::printf("(expected: more flash cache => fewer disk spin-ups and less energy,\n");
  std::printf(" approaching the all-flash organizations)\n\n");

  const std::vector<std::uint64_t> sizes = {1, 2, 4, 8, 16};
  // The architecture targets aggressive disk power management, where spin-up
  // cost dominates; run both the paper's 5-s threshold and a 1-s one.
  const std::vector<double> thresholds_sec = {5.0, 1.0};
  const std::vector<const char*> workloads = {"synth", "mac", "hp"};

  // Engine pre-pass: per (workload, threshold), the two disk baselines and
  // the all-flash upper bound.  Consumed in enumeration order below.
  std::vector<ExperimentPoint> points;
  for (const char* workload : workloads) {
    for (const double threshold_sec : thresholds_sec) {
      for (const std::uint64_t sram : {std::uint64_t{0}, std::uint64_t{32 * 1024}}) {
        ExperimentPoint point;
        point.index = points.size();
        point.workload = workload;
        point.scale = scale;
        point.config = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024, sram);
        point.config.spin_down_after_us = UsFromSec(threshold_sec);
        points.push_back(std::move(point));
      }
      ExperimentPoint all_flash;
      all_flash.index = points.size();
      all_flash.workload = workload;
      all_flash.scale = scale;
      all_flash.config = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
      points.push_back(std::move(all_flash));
    }
  }
  const std::vector<SweepOutcome> outcomes = ctx.RunPoints(std::move(points));
  std::size_t next = 0;

  // synth's 6-MB dataset fits entirely in the larger flash caches -- the
  // regime the architecture is designed for; mac and hp have working sets
  // far beyond any cache here, so compulsory misses keep the disk busy.
  for (const char* workload : workloads) {
    const TraceView blocks = TraceView::FromImage(LowerNamedWorkload(workload, scale));
    for (const double threshold_sec : thresholds_sec) {
    const SimTime spin_down_us = UsFromSec(threshold_sec);

    std::printf("-- %s trace, %.0f-s spin-down --\n", workload, threshold_sec);
    TablePrinter table({"Organization", "Energy (J)", "Read Mean (ms)", "Write Mean (ms)",
                        "Disk spin-ups", "Flash hit rate"});

    // Baselines: plain disk without the SRAM buffer (the architecture Marsh
    // et al. compared against) and with it (the stronger alternative).
    for (const std::uint64_t sram : {std::uint64_t{0}, std::uint64_t{32 * 1024}}) {
      const SimResult& result = outcomes[next++].result;
      table.BeginRow()
          .Cell(std::string(sram == 0 ? "disk alone (Marsh baseline)" : "disk + 32-KB SRAM"))
          .Cell(result.total_energy_j(), 0)
          .Cell(result.read_response_ms.mean(), 2)
          .Cell(result.write_response_ms.mean(), 2)
          .Cell(static_cast<std::int64_t>(result.counters.spinups))
          .Cell(std::string("-"));
    }
    const SimResult& all_flash_result = outcomes[next++].result;
    // The paper's 2-Mbyte DRAM cache, as the workload's rules leave it.
    SimConfig rules;
    ApplyWorkloadRules(workload, &rules);
    for (const std::uint64_t mb : sizes) {
      const RunStats stats =
          RunFlashCache(blocks, mb * 1024 * 1024, rules.dram_bytes, spin_down_us);
      char label[48];
      std::snprintf(label, sizeof(label), "disk + %llu-MB flash cache",
                    static_cast<unsigned long long>(mb));
      table.BeginRow()
          .Cell(std::string(label))
          .Cell(stats.energy_j, 0)
          .Cell(stats.read_ms, 2)
          .Cell(stats.write_ms, 2)
          .Cell(static_cast<std::int64_t>(stats.spinups))
          .Cell(stats.flash_hit_rate, 2);
      ResultRow row;
      row.AddText("workload", workload);
      row.AddNumber("spin_down_sec", threshold_sec);
      row.AddInt("flash_cache_mb", static_cast<std::int64_t>(mb));
      row.AddNumber("energy_j", stats.energy_j);
      row.AddNumber("read_mean_ms", stats.read_ms);
      row.AddNumber("write_mean_ms", stats.write_ms);
      row.AddInt("spinups", static_cast<std::int64_t>(stats.spinups));
      row.AddNumber("flash_hit_rate", stats.flash_hit_rate);
      ctx.Emit(std::move(row));
    }
    // Upper bound: all-flash.
    {
      const SimResult& result = all_flash_result;
      table.BeginRow()
          .Cell(std::string("all-flash card"))
          .Cell(result.total_energy_j(), 0)
          .Cell(result.read_response_ms.mean(), 2)
          .Cell(result.write_response_ms.mean(), 2)
          .Cell(static_cast<std::int64_t>(0))
          .Cell(std::string("-"));
    }
    table.Print(std::cout);
    std::printf("\n");
    }
  }
}

REGISTER_BENCH(related_flash_cache)({
    .name = "related_flash_cache",
    .description = "Flash memory as a cache for disk blocks (Marsh et al.)",
    .source = "Section 6",
    .dims = "workload{synth,mac,hp} x spin-down{5,1s} x cache{1..16MB}",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
