// Reproduces Figure 2 (and the section 5.2 endurance numbers): simulated
// energy consumption and mean write response time of the Intel flash card
// (datasheet specs, 128-KB segments) as a function of flash storage
// utilization, for the mac, dos, and hp traces, plus per-segment erase
// counts (endurance).
//
// Flash capacity is held constant across the sweep (large relative to each
// trace) and utilization is set by preloading filler data, mirroring the
// paper's methodology.  The sweep itself runs on the src/runner engine: one
// grid per trace, fanned across all cores, with identical results to the
// old serial loops (per-point seeding is deterministic).
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/runner/bench_registry.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/ascii_plot.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  const std::vector<double> utilizations = {0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95};

  std::printf("== Figure 2: Intel flash card vs storage utilization (scale %.2f) ==\n", scale);
  std::printf("(paper: 40%%->95%% raises energy 70-190%%, write response up to 30%%, and\n");
  std::printf(" the mac max segment-erase count 7->34, mean 0.9->1.9)\n");

  AsciiPlot energy_plot("Figure 2(a): energy vs flash utilization", "utilization %",
                        "J (per trace)");
  AsciiPlot write_plot("Figure 2(b): mean write response vs flash utilization",
                       "utilization %", "ms");
  const char glyphs[] = {'m', 'd', 'h'};
  int glyph_index = 0;

  for (const char* workload : {"mac", "dos", "hp"}) {
    // Fixed capacity across the sweep: big enough for the highest demand.
    // (The engine regenerates this trace internally from the same seed.)
    const TraceView blocks = TraceView::FromImage(LowerNamedWorkload(workload, scale));
    const std::uint64_t capacity =
        RequiredCapacityBytes(blocks.total_bytes(), utilizations.front(), 128 * 1024);

    ExperimentSpec spec;
    spec.base = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
    spec.base.capacity_bytes = capacity;
    spec.base.auto_capacity = false;
    spec.workloads = {workload};
    spec.utilizations = utilizations;
    spec.scale = scale;

    const std::vector<SweepOutcome> outcomes = ctx.RunGrid(spec);

    std::vector<double> xs;
    std::vector<double> energies;
    std::vector<double> write_means;

    std::printf("\n-- %s trace (flash capacity %.1f MB) --\n", workload,
                static_cast<double>(capacity) / (1024.0 * 1024.0));
    TablePrinter table({"Utilization (%)", "Energy (J)", "Write Mean (ms)", "Write Max",
                        "Erases", "Blocks copied", "Max seg erases", "Mean seg erases"});
    double energy40 = 0.0;
    double write40 = 0.0;
    for (const SweepOutcome& outcome : outcomes) {
      const double util = outcome.point.config.flash_utilization;
      const SimResult& result = outcome.result;
      xs.push_back(util * 100.0);
      energies.push_back(result.total_energy_j());
      write_means.push_back(result.write_response_ms.mean());
      if (util == utilizations.front()) {
        energy40 = result.total_energy_j();
        write40 = result.write_response_ms.mean();
      }
      table.BeginRow()
          .Cell(util * 100.0, 0)
          .Cell(result.total_energy_j(), 0)
          .Cell(result.write_response_ms.mean(), 2)
          .Cell(result.write_response_ms.max(), 0)
          .Cell(static_cast<std::int64_t>(result.counters.segment_erases))
          .Cell(static_cast<std::int64_t>(result.counters.blocks_copied))
          .Cell(result.max_segment_erases, 0)
          .Cell(result.mean_segment_erases, 2);
      if (util == utilizations.back()) {
        std::printf("95%% vs 40%%: energy +%.0f%%, write response %+.0f%%\n",
                    (result.total_energy_j() / energy40 - 1.0) * 100.0,
                    write40 > 0 ? (result.write_response_ms.mean() / write40 - 1.0) * 100.0
                                : 0.0);
      }
    }
    table.Print(std::cout);
    energy_plot.AddSeries(workload, glyphs[glyph_index], xs, energies);
    write_plot.AddSeries(workload, glyphs[glyph_index], xs, write_means);
    ++glyph_index;
  }
  std::printf("\n");
  energy_plot.Render(std::cout);
  std::printf("\n");
  write_plot.Render(std::cout);
}

REGISTER_BENCH(fig2_utilization)({
    .name = "fig2_utilization",
    .description = "Intel flash card energy/response vs storage utilization",
    .source = "Figure 2",
    .dims = "workload{mac,dos,hp} x utilization{40..95%}",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
