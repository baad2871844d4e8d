// google-benchmark timings of the simulator's hot paths: device model
// operations, segment-manager writes/cleaning, cache lookups, and whole
// trace-driven runs.  These guard the "laptop-scale" property: every paper
// experiment should run in seconds.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/device/log_flash_device.h"
#include "src/device/magnetic_disk.h"
#include "src/flash/segment_manager.h"
#include "src/runner/bench_registry.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"

namespace mobisim {
namespace {

void BM_SegmentManagerWrite(benchmark::State& state) {
  SegmentManagerConfig config;
  config.capacity_bytes = 8 * 1024 * 1024;
  config.segment_bytes = 128 * 1024;
  config.block_bytes = 512;
  SegmentManager manager(config);
  const std::uint64_t span = manager.total_blocks() / 2;
  manager.Preload(0, span);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    if (manager.free_slots() <= manager.blocks_per_segment() * 2) {
      const std::uint32_t victim = manager.PickVictim();
      if (victim != SegmentManager::kNoSegment) {
        manager.CleanSegment(victim);
      }
    }
    manager.WriteBlock(lba);
    lba = (lba + 7919) % span;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentManagerWrite);

void BM_MagneticDiskOp(benchmark::State& state) {
  DeviceOptions options;
  options.block_bytes = 1024;
  MagneticDisk disk(Cu140Datasheet(), options);
  BlockRecord rec;
  rec.block_count = 4;
  SimTime now = 0;
  for (auto _ : state) {
    rec.time_us = now;
    rec.file_id = static_cast<std::uint32_t>(now % 97);
    benchmark::DoNotOptimize(disk.Read(now, rec));
    now += 100000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MagneticDiskOp);

void BM_FlashCardWrite(benchmark::State& state) {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 16 * 1024 * 1024;
  LogFlashDevice card(IntelCardDatasheet(), options);
  const std::uint64_t span = 10 * 1024;
  card.Preload(span, 0.8, /*interleave=*/true);
  BlockRecord rec;
  rec.block_count = 2;
  SimTime now = 0;
  std::uint64_t lba = 0;
  for (auto _ : state) {
    rec.time_us = now;
    rec.lba = lba;
    benchmark::DoNotOptimize(card.Write(now, rec));
    now += 500000;
    lba = (lba + 127) % (span - 2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlashCardWrite);

void BM_BufferCacheHit(benchmark::State& state) {
  BufferCache cache(NecDramSpec(), 2 * 1024 * 1024, 1024, /*address_blocks=*/1024);
  cache.Insert(0, 1024);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.ReadHit(lba, 2));
    lba = (lba + 37) % 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCacheHit);

void BM_SynthEndToEnd(benchmark::State& state) {
  const Trace trace = GenerateNamedWorkload("synth", 0.25);
  const TraceView blocks = BlockMapper::Map(trace);
  for (auto _ : state) {
    SimConfig config = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
    benchmark::DoNotOptimize(RunSimulation(blocks, config));
  }
  state.SetItemsProcessed(state.iterations() * blocks.size());
}
BENCHMARK(BM_SynthEndToEnd);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateNamedWorkload("synth", 0.25));
  }
}
BENCHMARK(BM_WorkloadGeneration);

void Run(BenchContext& ctx) {
  // Hand google-benchmark a synthetic argv; under --smoke the minimum
  // measurement time shrinks so the whole suite finishes in a few seconds.
  // The bare-double form parses on every library version (1.8+ also accepts
  // a "0.05s" spelling, older ones only the number).
  std::vector<std::string> args = {"mobisim_bench"};
  if (ctx.smoke()) {
    args.push_back("--benchmark_min_time=0.05");
  }
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  int argc = static_cast<int>(argv.size());
  benchmark::Initialize(&argc, argv.data());
  benchmark::RunSpecifiedBenchmarks();
}

REGISTER_BENCH(micro_models)({
    .name = "micro_models",
    .description = "google-benchmark timings of the simulator's hot paths",
    .source = "performance",
    .dims = "device ops, segment manager, cache, end-to-end runs",
    .uses_scale = false,
    .deterministic = false,
    .run = Run,
});

}  // namespace
}  // namespace mobisim
