// Reproduces Table 4 of Douglis et al. (OSDI '94): energy consumption and
// read/write response time for seven device configurations across the mac,
// dos, and hp traces.
//
// Setup mirrors the paper: 2-Mbyte DRAM buffer cache for mac and dos, none
// for hp; disks spin down after 5 s of inactivity and carry a 32-Kbyte SRAM
// write buffer; flash simulations run at 80% storage utilization.
//
// The device axis is not a uniform spec dimension here (each row gets its
// own MakePaperConfig), so the bench hands the engine one flat batch of
// hand-built points — workload outer, device inner — and consumes the
// outcomes in that order.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/runner/bench_registry.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

struct Row {
  DeviceSpec spec;
  const char* label;
};

std::vector<Row> Table4Devices() {
  return {
      {Cu140Measured(), "cu140 measured"},
      {Cu140Datasheet(), "cu140 datasheet"},
      {KittyhawkDatasheet(), "kh datasheet"},
      {Sdp10Measured(), "sdp10 measured"},
      {Sdp5Datasheet(), "sdp5 datasheet"},
      {IntelCardMeasured(), "Intel flash card measured"},
      {IntelCardDatasheet(), "Intel flash card datasheet"},
  };
}

void PrintTrace(const std::string& workload, const std::vector<SweepOutcome>& outcomes,
                std::size_t* next) {
  SimConfig rules;  // the paper's 2-Mbyte DRAM cache, as the workload's rules leave it
  ApplyWorkloadRules(workload, &rules);
  std::printf("\nTable 4 (%s trace)%s\n", workload.c_str(),
              rules.dram_bytes == 0 ? "  [no DRAM cache]" : "  [2-Mbyte DRAM cache]");
  TablePrinter table({"Device", "Energy (J)", "Read Mean (ms)", "Read Max", "Read sd",
                      "Write Mean (ms)", "Write Max", "Write sd"});
  TablePrinter percentiles({"Device", "Read p50", "Read p95", "Read p99", "Write p50",
                            "Write p95", "Write p99"});
  for (const Row& row : Table4Devices()) {
    const SweepOutcome& outcome = outcomes[(*next)++];
    const SimResult& result = outcome.result;
    table.BeginRow()
        .Cell(std::string(row.label))
        .Cell(result.total_energy_j(), 0)
        .Cell(result.read_response_ms.mean(), 2)
        .Cell(result.read_response_ms.max(), 1)
        .Cell(result.read_response_ms.stddev(), 1)
        .Cell(result.write_response_ms.mean(), 2)
        .Cell(result.write_response_ms.max(), 1)
        .Cell(result.write_response_ms.stddev(), 1);
    // The sweep released the reservoirs; the row carries their percentiles
    // round-trip exactly.
    percentiles.BeginRow()
        .Cell(std::string(row.label))
        .Cell(outcome.row.Number("read_ms_p50"), 2)
        .Cell(outcome.row.Number("read_ms_p95"), 2)
        .Cell(outcome.row.Number("read_ms_p99"), 2)
        .Cell(outcome.row.Number("write_ms_p50"), 2)
        .Cell(outcome.row.Number("write_ms_p95"), 2)
        .Cell(outcome.row.Number("write_ms_p99"), 2);
  }
  table.Print(std::cout);
  std::printf("(response-time percentiles, ms)\n");
  percentiles.Print(std::cout);
}

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Table 4: energy and response time by device and trace (scale %.2f) ==\n",
              scale);
  const std::vector<const char*> workloads = {"mac", "dos", "hp"};
  std::vector<ExperimentPoint> points;
  for (const char* workload : workloads) {
    for (const Row& row : Table4Devices()) {
      ExperimentPoint point;
      point.index = points.size();
      point.workload = workload;
      point.scale = scale;
      point.config = MakePaperConfig(row.spec, 2 * 1024 * 1024);
      points.push_back(std::move(point));
    }
  }
  const std::vector<SweepOutcome> outcomes = ctx.RunPoints(std::move(points));
  std::size_t next = 0;
  for (const char* workload : workloads) {
    PrintTrace(workload, outcomes, &next);
  }
}

REGISTER_BENCH(table4_devices)({
    .name = "table4_devices",
    .description = "Energy and response time by device and trace",
    .source = "Table 4",
    .dims = "workload{mac,dos,hp} x device{7 configurations}",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
