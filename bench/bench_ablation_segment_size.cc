// Ablation: flash-card erase-segment size.
//
// The paper's conclusion argues that the erasure unit, fixed by the
// manufacturer, strongly influences file-system behaviour: large units
// require low utilization, and flash "more like the flash disk emulator,
// with small erasure units immune to storage-utilization effects, will
// likely grow in popularity".  This bench sweeps the segment size (with
// erase time scaled to keep erase bandwidth constant) at two utilizations.
//
// The trace is generated locally only to fix the flash capacity; each point
// names the same (workload, scale, seed) so the engine regenerates the
// identical trace from its cache.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/runner/bench_registry.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Ablation: flash-card erase-segment size (mac trace, scale %.2f) ==\n", scale);
  std::printf("(erase time scaled with segment size: constant 80 KB/s erase bandwidth)\n\n");

  const TraceView blocks = TraceView::FromImage(LowerNamedWorkload("mac", scale));

  const std::vector<std::uint32_t> segment_kb = {8, 16, 32, 64, 128, 256};
  const std::vector<double> utils = {0.80, 0.95};
  std::vector<ExperimentPoint> points;
  for (const double util : utils) {
    for (const std::uint32_t seg_kb : segment_kb) {
      DeviceSpec spec = IntelCardDatasheet();
      spec.erase_segment_bytes = seg_kb * 1024;
      // Keep erase bandwidth at the Series 2's 128 KB / 1.6 s.
      spec.erase_ms_per_segment = 1600.0 * seg_kb / 128.0;

      ExperimentPoint point;
      point.index = points.size();
      point.workload = "mac";
      point.scale = scale;
      point.config = MakePaperConfig(spec, 2 * 1024 * 1024);
      point.config.flash_utilization = util;
      point.config.capacity_bytes =
          RequiredCapacityBytes(blocks.total_bytes(), 0.40, 256 * 1024);
      point.config.auto_capacity = false;
      points.push_back(std::move(point));
    }
  }
  const std::vector<SweepOutcome> outcomes = ctx.RunPoints(std::move(points));

  std::size_t next = 0;
  for (const double util : utils) {
    std::printf("-- utilization %.0f%% --\n", util * 100.0);
    TablePrinter table({"Segment (KB)", "Energy (J)", "Write Mean (ms)", "Write Max",
                        "Erases", "Blocks copied", "Stall time (s)"});
    for (const std::uint32_t seg_kb : segment_kb) {
      const SimResult& result = outcomes[next++].result;
      table.BeginRow()
          .Cell(static_cast<std::int64_t>(seg_kb))
          .Cell(result.total_energy_j(), 0)
          .Cell(result.write_response_ms.mean(), 2)
          .Cell(result.write_response_ms.max(), 0)
          .Cell(static_cast<std::int64_t>(result.counters.segment_erases))
          .Cell(static_cast<std::int64_t>(result.counters.blocks_copied))
          .Cell(SecFromUs(result.counters.stall_time_us), 2);
    }
    table.Print(std::cout);
    std::printf("\n");
  }
}

REGISTER_BENCH(ablation_segment_size)({
    .name = "ablation_segment_size",
    .description = "Flash-card erase-segment size at constant erase bandwidth",
    .source = "Section 7",
    .dims = "utilization{80,95%} x segment{8..256KB} (mac trace)",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
