// Flash endurance projection: how long until a card wears out?
//
// Runs a workload against the flash card at several storage utilizations,
// measures per-segment erase counts, and extrapolates to the endurance limit
// (10^5 cycles for the parts the paper studied, 10^6 for the Series 2+).
// Reproduces the section 5.2 observation that running flash near capacity
// can cost a third or more of its lifetime.
//
//   ./flash_lifetime [workload] [scale]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace mobisim;

  const std::string workload = argc > 1 ? argv[1] : "mac";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

  const Trace trace = GenerateNamedWorkload(workload, scale);
  const TraceView blocks = BlockMapper::Map(trace);
  const std::uint64_t capacity =
      RequiredCapacityBytes(blocks.total_bytes(), 0.40, 128 * 1024);

  std::printf("Flash-card lifetime projection, %s workload (card %.1f MB)\n\n",
              workload.c_str(), static_cast<double>(capacity) / (1024.0 * 1024.0));

  TablePrinter table({"Utilization (%)", "Max seg erases", "Mean seg erases",
                      "Worst-segment life @100k (years)", "@1M (years)"});
  for (const double util : {0.40, 0.60, 0.80, 0.90, 0.95}) {
    SimConfig config = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
    ApplyWorkloadRules(workload, &config);
    config.flash_utilization = util;
    config.capacity_bytes = capacity;
    config.auto_capacity = false;
    const SimResult result = RunSimulation(blocks, config);

    // Extrapolate: the workload's post-warm span produced `max` erases on
    // the hottest segment; wear-out is when that segment hits the limit.
    const double span_years = result.duration_sec / (365.25 * 24 * 3600);
    table.BeginRow()
        .Cell(util * 100.0, 0)
        .Cell(result.max_segment_erases, 0)
        .Cell(result.mean_segment_erases, 2);
    if (result.max_segment_erases < 1.0) {
      table.Cell(std::string("no wear observed")).Cell(std::string("no wear observed"));
    } else {
      table.Cell(100000.0 / result.max_segment_erases * span_years, 1)
          .Cell(1000000.0 / result.max_segment_erases * span_years, 1);
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nNote: the projection assumes this workload runs continuously and that the\n"
      "hottest segment stays hottest (no additional wear-levelling beyond the\n"
      "cleaner's natural rotation).\n");
  return 0;
}
