// Ablation: flash-card cleaning policy (greedy lowest-utilization, as MFFS,
// vs LFS/eNVy-style cost-benefit) and prefill mixing (segregated cold data
// vs pessimally interleaved), across storage utilizations.
//
// Every variant is a bundle of config flags, so the bench hands the engine
// one hand-built point per (utilization, variant) pair; the trace is
// generated locally only to fix the flash capacity.
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

struct Variant {
  const char* label;
  CleaningPolicy policy;
  bool interleave;
  bool background;
  bool separate_cleaning;
};

const std::vector<Variant>& Variants() {
  static const std::vector<Variant> variants = {
      {"greedy / segregated / background", CleaningPolicy::kGreedy, false, true, false},
      {"cost-benefit / segregated / background", CleaningPolicy::kCostBenefit, false, true,
       false},
      {"wear-aware / segregated / background", CleaningPolicy::kWearAware, false, true,
       false},
      {"greedy + eNVy-style copy separation", CleaningPolicy::kGreedy, false, true, true},
      {"greedy / interleaved / background", CleaningPolicy::kGreedy, true, true, false},
      {"cost-benefit / interleaved / background", CleaningPolicy::kCostBenefit, true, true,
       false},
      {"greedy / interleaved + copy separation", CleaningPolicy::kGreedy, true, true, true},
      {"greedy / segregated / on-demand", CleaningPolicy::kGreedy, false, false, false},
  };
  return variants;
}

void Run(BenchContext& ctx) {
  const double scale = ctx.scale();
  std::printf("== Ablation: flash-card cleaning policy and cold-data mixing (scale %.2f) ==\n",
              scale);
  std::printf("(mac trace, Intel datasheet card)\n\n");

  const TraceView blocks = TraceView::FromImage(LowerNamedWorkload("mac", scale));
  const std::uint64_t capacity = RequiredCapacityBytes(blocks.total_bytes(), 0.40, 128 * 1024);

  const std::vector<double> utils = {0.80, 0.90, 0.95};
  std::vector<ExperimentPoint> points;
  for (const double util : utils) {
    for (const Variant& variant : Variants()) {
      ExperimentPoint point;
      point.index = points.size();
      point.workload = "mac";
      point.scale = scale;
      point.config = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
      point.config.flash_utilization = util;
      point.config.capacity_bytes = capacity;
      point.config.auto_capacity = false;
      point.config.cleaning_policy = variant.policy;
      point.config.interleave_prefill = variant.interleave;
      point.config.background_cleaning = variant.background;
      point.config.separate_cleaning_segment = variant.separate_cleaning;
      points.push_back(std::move(point));
    }
  }
  const std::vector<SweepOutcome> outcomes = ctx.RunPoints(std::move(points));

  std::size_t next = 0;
  for (const double util : utils) {
    std::printf("-- utilization %.0f%% --\n", util * 100.0);
    TablePrinter table({"Variant", "Energy (J)", "Write Mean (ms)", "Write Max", "Erases",
                        "Blocks copied", "Max seg erases", "Erase sd"});
    for (const Variant& variant : Variants()) {
      const SimResult& result = outcomes[next++].result;
      table.BeginRow()
          .Cell(std::string(variant.label))
          .Cell(result.total_energy_j(), 0)
          .Cell(result.write_response_ms.mean(), 2)
          .Cell(result.write_response_ms.max(), 0)
          .Cell(static_cast<std::int64_t>(result.counters.segment_erases))
          .Cell(static_cast<std::int64_t>(result.counters.blocks_copied))
          .Cell(result.max_segment_erases, 0)
          .Cell(result.counters.segment_erase_stats.stddev(), 2);
    }
    table.Print(std::cout);
    std::printf("\n");
  }
}

REGISTER_BENCH(ablation_cleaning)({
    .name = "ablation_cleaning",
    .description = "Cleaning policy and cold-data mixing on the flash card",
    .source = "ablation",
    .dims = "utilization{80,90,95%} x variant{8 policy/mixing bundles}",
    .run = Run,
});

}  // namespace
}  // namespace mobisim
