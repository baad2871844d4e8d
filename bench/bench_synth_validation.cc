// Section 5.1 validation: the paper ran a 6-MB synthetic trace both on the
// OmniBook testbed and through the simulator, and found simulated
// performance within a few percent of measurement (with two exceptions it
// explains).  Our analogue: run the synth workload through the full
// simulator (no caches, device-direct) and compare the mean read/write
// response against an analytic expectation computed straight from the
// device specifications -- no queueing, no cleaning, no spin-downs.
//
// The trace's timestamps are rewritten (closed-loop spacing), which the
// engine's named-workload regeneration cannot express, so this bench runs
// the simulator directly and emits its comparison rows by hand.
#include <cstdio>
#include <iostream>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/runner/bench_registry.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

struct Expectation {
  double read_ms = 0.0;
  double write_ms = 0.0;
};

// Mean service time straight from the spec sheet, assuming a spinning disk /
// stall-free flash and the no-seek-within-file rule applied pessimistically
// (every op pays the random overhead).
Expectation AnalyticExpectation(const DeviceSpec& spec, const TraceView& trace) {
  Expectation e;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double read_ms = 0.0;
  double write_ms = 0.0;
  const std::uint64_t warm = trace.size() / 10;
  for (std::uint64_t i = warm; i < trace.size(); ++i) {
    const BlockRecord rec = trace.record(i);
    const std::uint64_t bytes = static_cast<std::uint64_t>(rec.block_count) * trace.block_bytes();
    if (rec.op == OpType::kRead) {
      read_ms += spec.read_overhead_ms + MsFromUs(TransferTimeUs(bytes, spec.read_kbps));
      ++reads;
    } else if (rec.op == OpType::kWrite) {
      write_ms += spec.write_overhead_ms + MsFromUs(TransferTimeUs(bytes, spec.write_kbps));
      ++writes;
    }
  }
  e.read_ms = reads > 0 ? read_ms / static_cast<double>(reads) : 0.0;
  e.write_ms = writes > 0 ? write_ms / static_cast<double>(writes) : 0.0;
  return e;
}

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Section 5.1: simulator vs analytic expectation, synth workload ==\n");
  std::printf("(paper: simulation within a few percent of testbed measurement, except\n");
  std::printf(" flash-card reads and cu140 writes, which the paper attributes to cleaning/\n");
  std::printf(" decompression and seek costs; our deltas likewise come from seeks, queueing\n");
  std::printf(" and cleaning, which the analytic model omits)\n\n");

  Trace trace = GenerateNamedWorkload("synth", scale);
  // The testbed ran closed-loop (each operation issued after the previous
  // one completed); replaying trace timestamps open-loop against a raw
  // device would only measure queueing.  Spacing the records out removes
  // queueing while keeping the op mix and sizes.  The mapper copies each
  // file-level time to its block record.
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    trace.records[i].time_us = static_cast<SimTime>(i) * 5 * kUsPerSec;
  }
  const TraceView blocks = BlockMapper::Map(trace);

  TablePrinter table({"Device", "Read sim (ms)", "Read analytic", "Delta (%)",
                      "Write sim (ms)", "Write analytic", "Delta (%)"});
  for (const DeviceSpec& spec :
       {Cu140Measured(), Sdp10Measured(), IntelCardMeasured()}) {
    SimConfig config = MakePaperConfig(spec, /*dram_bytes=*/0, /*sram_bytes=*/0);
    config.spin_down_after_us = UsFromSec(1e6);  // keep the disk spinning, as on the testbed
    const SimResult result = RunSimulation(blocks, config);
    const Expectation expect = AnalyticExpectation(spec, blocks);
    const double read_sim = result.read_response_ms.mean();
    const double write_sim = result.write_response_ms.mean();
    table.BeginRow()
        .Cell(spec.name)
        .Cell(read_sim, 2)
        .Cell(expect.read_ms, 2)
        .Cell(expect.read_ms > 0 ? (read_sim / expect.read_ms - 1.0) * 100.0 : 0.0, 1)
        .Cell(write_sim, 2)
        .Cell(expect.write_ms, 2)
        .Cell(expect.write_ms > 0 ? (write_sim / expect.write_ms - 1.0) * 100.0 : 0.0, 1);
    ResultRow row;
    row.AddText("workload", "synth");
    row.AddText("device", spec.name);
    row.AddNumber("scale", scale);
    row.AddNumber("read_sim_ms", read_sim);
    row.AddNumber("read_analytic_ms", expect.read_ms);
    row.AddNumber("write_sim_ms", write_sim);
    row.AddNumber("write_analytic_ms", expect.write_ms);
    ctx.Emit(std::move(row));
  }
  table.Print(std::cout);
}

REGISTER_BENCH(synth_validation)({
    .name = "synth_validation",
    .description = "Simulator vs analytic expectation on the synth workload",
    .source = "Section 5.1",
    .dims = "device{cu140,sdp10,Intel measured} (closed-loop trace)",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
