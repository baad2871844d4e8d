// Ablation: the paper's average-cost disk timing vs a detailed
// geometry-based model (seek curve over cylinder distance + rotational
// position tracking + head switches).
//
// Section 4.2 lists average seek/rotation among the simulator's simplifying
// assumptions and section 5.1 attributes the cu140's 2x simulation-vs-
// measurement write gap to "our optimistic assumption about avoiding
// seeks".  This bench quantifies how much the simplification matters.
//
// Each drive takes its geometry from its catalog spec; the timing model is
// a config flag, not a spec dimension, so the bench runs hand-built points
// through the engine.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/runner/bench_registry.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

std::vector<DeviceSpec> Drives() { return {Cu140Datasheet(), KittyhawkDatasheet()}; }

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Ablation: average-cost vs geometry-based disk timing (scale %.2f) ==\n\n",
              scale);

  const std::vector<const char*> workloads = {"mac", "dos", "hp"};
  std::vector<ExperimentPoint> points;
  for (const char* workload : workloads) {
    for (const DeviceSpec& drive : Drives()) {
      for (const bool geometric : {false, true}) {
        ExperimentPoint point;
        point.index = points.size();
        point.workload = workload;
        point.scale = scale;
        point.config = MakePaperConfig(drive, 2 * 1024 * 1024);
        point.config.use_disk_geometry = geometric;
        points.push_back(std::move(point));
      }
    }
  }
  const std::vector<SweepOutcome> outcomes = ctx.RunPoints(std::move(points));

  std::size_t next = 0;
  for (const char* workload : workloads) {
    std::printf("-- %s trace --\n", workload);
    TablePrinter table({"Drive", "Model", "Read Mean (ms)", "Read Max", "Write Mean (ms)",
                        "Energy (J)"});
    for (const DeviceSpec& drive : Drives()) {
      for (const bool geometric : {false, true}) {
        const SimResult& result = outcomes[next++].result;
        table.BeginRow()
            .Cell(drive.name)
            .Cell(std::string(geometric ? "geometry" : "average"))
            .Cell(result.read_response_ms.mean(), 2)
            .Cell(result.read_response_ms.max(), 0)
            .Cell(result.write_response_ms.mean(), 2)
            .Cell(result.total_energy_j(), 0);
      }
    }
    table.Print(std::cout);
    std::printf("\n");
  }
}

REGISTER_BENCH(ablation_seek_model)({
    .name = "ablation_seek_model",
    .description = "Average-cost vs geometry-based disk timing",
    .source = "Sections 4.2/5.1",
    .dims = "workload{mac,dos,hp} x drive{cu140,kh} x model{average,geometry}",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
