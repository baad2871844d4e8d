// Hybrid disk+flash storage with the paper's economics.
//
// Section 1 prices flash at $30-50/Mbyte against $1-5/Mbyte for disk, which
// is why "replace the disk with flash" was a real trade-off in 1994.  This
// bench compares disk-only, flash-only, and hybrid organizations (a small
// flash card holding the hot files) on energy, response time, and 1994
// dollars.
//
// The disk-only and flash-only rows are plain simulator configurations and
// run as one engine batch up front; the hybrid organizations use
// src/hybrid directly and emit their rows by hand.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/hybrid/hybrid_store.h"
#include "src/runner/bench_registry.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

// Mid-range 1994 prices from the paper's introduction.
constexpr double kFlashDollarsPerMb = 40.0;
constexpr double kDiskDollarsPerMb = 3.0;

double StorageDollars(double disk_mb, double flash_mb) {
  return disk_mb * kDiskDollarsPerMb + flash_mb * kFlashDollarsPerMb;
}

struct RunStats {
  double energy_j = 0.0;
  double read_ms = 0.0;
  double write_ms = 0.0;
  double flash_fraction = 0.0;
  std::uint64_t promotions = 0;
};

RunStats RunHybrid(const TraceView& trace, std::uint64_t flash_bytes) {
  HybridConfig config;
  config.flash_bytes = flash_bytes;
  config.block_bytes = trace.block_bytes();
  config.disk_capacity_bytes =
      std::max<std::uint64_t>(trace.total_bytes(), 40ull * 1024 * 1024);
  HybridStore store(config);

  RunningStats reads;
  RunningStats writes;
  const std::uint64_t warm = trace.size() / 10;
  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    const BlockRecord rec = trace.record(i);
    const SimTime response = store.Handle(rec);
    if (i >= warm) {
      if (rec.op == OpType::kRead) {
        reads.Add(MsFromUs(response));
      } else if (rec.op == OpType::kWrite) {
        writes.Add(MsFromUs(response));
      }
    }
  }
  store.Finish(trace.times()[trace.size() - 1]);
  return RunStats{store.total_energy_j(), reads.mean(), writes.mean(),
                  store.flash_service_fraction(), store.promotions()};
}

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Hybrid disk+flash placement vs all-disk / all-flash ==\n");
  std::printf("(scale %.2f; 1994 prices: flash $%.0f/MB, disk $%.0f/MB; 40-MB store)\n\n",
              scale, kFlashDollarsPerMb, kDiskDollarsPerMb);

  const std::vector<const char*> workloads = {"mac", "synth"};
  std::vector<ExperimentPoint> points;
  for (const char* workload : workloads) {
    for (const DeviceSpec& spec : {Cu140Datasheet(), IntelCardDatasheet()}) {
      ExperimentPoint point;
      point.index = points.size();
      point.workload = workload;
      point.scale = scale;
      point.config = MakePaperConfig(spec, 2 * 1024 * 1024);
      points.push_back(std::move(point));
    }
  }
  const std::vector<SweepOutcome> outcomes = ctx.RunPoints(std::move(points));
  std::size_t next = 0;

  for (const char* workload : workloads) {
    const TraceView blocks = TraceView::FromImage(LowerNamedWorkload(workload, scale));
    const double store_mb = 40.0;

    std::printf("-- %s trace --\n", workload);
    TablePrinter table({"Organization", "1994 $", "Energy (J)", "Read Mean (ms)",
                        "Write Mean (ms)", "Flash svc frac", "Promotions"});

    const SimResult& disk_result = outcomes[next++].result;
    const SimResult& flash_result = outcomes[next++].result;
    {
      const SimResult& r = disk_result;
      table.BeginRow()
          .Cell(std::string("disk only (+SRAM)"))
          .Cell(StorageDollars(store_mb, 0), 0)
          .Cell(r.total_energy_j(), 0)
          .Cell(r.read_response_ms.mean(), 2)
          .Cell(r.write_response_ms.mean(), 2)
          .Cell(std::string("-"))
          .Cell(static_cast<std::int64_t>(0));
    }
    for (const std::uint64_t mb : {2ull, 4ull, 8ull}) {
      const RunStats stats = RunHybrid(blocks, mb * 1024 * 1024);
      char label[48];
      std::snprintf(label, sizeof(label), "hybrid: disk + %llu-MB flash",
                    static_cast<unsigned long long>(mb));
      table.BeginRow()
          .Cell(std::string(label))
          .Cell(StorageDollars(store_mb, static_cast<double>(mb)), 0)
          .Cell(stats.energy_j, 0)
          .Cell(stats.read_ms, 2)
          .Cell(stats.write_ms, 2)
          .Cell(stats.flash_fraction, 2)
          .Cell(static_cast<std::int64_t>(stats.promotions));
      ResultRow row;
      row.AddText("workload", workload);
      row.AddInt("flash_mb", static_cast<std::int64_t>(mb));
      row.AddNumber("dollars_1994", StorageDollars(store_mb, static_cast<double>(mb)));
      row.AddNumber("energy_j", stats.energy_j);
      row.AddNumber("read_mean_ms", stats.read_ms);
      row.AddNumber("write_mean_ms", stats.write_ms);
      row.AddNumber("flash_service_fraction", stats.flash_fraction);
      row.AddInt("promotions", static_cast<std::int64_t>(stats.promotions));
      ctx.Emit(std::move(row));
    }
    {
      const SimResult& r = flash_result;
      table.BeginRow()
          .Cell(std::string("flash only"))
          .Cell(StorageDollars(0, store_mb), 0)
          .Cell(r.total_energy_j(), 0)
          .Cell(r.read_response_ms.mean(), 2)
          .Cell(r.write_response_ms.mean(), 2)
          .Cell(std::string("1.00"))
          .Cell(static_cast<std::int64_t>(0));
    }
    table.Print(std::cout);
    std::printf("\n");
  }
}

REGISTER_BENCH(related_hybrid)({
    .name = "related_hybrid",
    .description = "Hybrid disk+flash placement vs all-disk / all-flash",
    .source = "Section 1/6",
    .dims = "workload{mac,synth} x organization{disk,hybrid 2-8MB,flash}",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
