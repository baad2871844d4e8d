// Ablation: file-system metadata traffic.
//
// The paper's file-level traces lack metadata operations (section 4.1), and
// its preprocessing maps files to disk blocks with zero file-system
// overhead.  This bench lowers the same workloads through the FAT substrate
// (src/fs) and compares: metadata write share, response times, energy, and
// -- the classic result -- how the fixed, scorching-hot FAT blocks
// concentrate flash-card erasures (the wear problem log-structured flash
// file systems were invented to avoid).
//
// The FAT-lowered trace is injected, which the engine's named-workload
// regeneration cannot express, so this bench runs the simulator directly
// and emits its comparison rows by hand.
#include <cstdio>
#include <iostream>
#include <string>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/fs/fat_file_system.h"
#include "src/runner/bench_registry.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Ablation: naive file->block mapping vs FAT metadata traffic ==\n");
  std::printf("(scale %.2f; flash at 80%% utilization; disk with SRAM buffer)\n\n", scale);

  for (const char* workload : {"mac", "dos"}) {
    const Trace trace = GenerateNamedWorkload(workload, scale);

    const TraceView naive = BlockMapper::Map(trace);
    FatConfig fat_config;
    fat_config.block_bytes = trace.block_bytes;
    fat_config.capacity_bytes =
        2 * naive.total_bytes() + 16ull * 1024 * 1024;  // roomy volume
    fat_config.dir_entries = 4096;
    FatFileSystem fat(fat_config);
    const TraceView with_fat = fat.Lower(trace);

    const FatStats& stats = fat.stats();
    std::printf("-- %s trace: %llu data + %llu metadata block writes (%.1f%% metadata),\n",
                workload,
                static_cast<unsigned long long>(stats.data_blocks_written),
                static_cast<unsigned long long>(stats.metadata_blocks_written()),
                100.0 * static_cast<double>(stats.metadata_blocks_written()) /
                    static_cast<double>(stats.metadata_blocks_written() +
                                        stats.data_blocks_written));
    std::printf("   %.2f extents per file (fragmentation), FAT region %llu blocks --\n",
                stats.mean_extents_per_file,
                static_cast<unsigned long long>(fat.fat_blocks()));

    TablePrinter table({"Device", "Mapping", "Energy (J)", "Read Mean (ms)",
                        "Write Mean (ms)", "Erases", "Max seg erases"});
    for (const DeviceSpec& spec : {Cu140Datasheet(), IntelCardDatasheet()}) {
      for (const bool use_fat : {false, true}) {
        const TraceView& blocks = use_fat ? with_fat : naive;
        SimConfig config = MakePaperConfig(spec, 2 * 1024 * 1024);
        const SimResult result = RunSimulation(blocks, config);
        table.BeginRow()
            .Cell(spec.name)
            .Cell(std::string(use_fat ? "FAT (with metadata)" : "naive"))
            .Cell(result.total_energy_j(), 0)
            .Cell(result.read_response_ms.mean(), 2)
            .Cell(result.write_response_ms.mean(), 2)
            .Cell(static_cast<std::int64_t>(result.counters.segment_erases))
            .Cell(result.max_segment_erases, 0);
        ResultRow row;
        row.AddText("workload", workload);
        row.AddText("device", spec.name);
        row.AddText("mapping", use_fat ? "fat" : "naive");
        row.AddNumber("scale", scale);
        row.AddNumber("energy_j", result.total_energy_j());
        row.AddNumber("read_mean_ms", result.read_response_ms.mean());
        row.AddNumber("write_mean_ms", result.write_response_ms.mean());
        row.AddInt("segment_erases",
                   static_cast<std::int64_t>(result.counters.segment_erases));
        row.AddNumber("max_segment_erases", result.max_segment_erases);
        ctx.Emit(std::move(row));
      }
    }
    table.Print(std::cout);
    std::printf("\n");
  }
}

REGISTER_BENCH(ablation_metadata)({
    .name = "ablation_metadata",
    .description = "Naive file->block mapping vs FAT metadata traffic",
    .source = "Section 4.1",
    .dims = "workload{mac,dos} x device{cu140,Intel} x mapping{naive,FAT}",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
