#include "src/trace/synth_workload.h"

#include <algorithm>
#include <vector>

#include "src/trace/block_mapper.h"
#include "src/util/check.h"

namespace mobisim {

namespace {

constexpr std::uint32_t kBlockBytes = 512;

// Generates config.op_count records in order, handing each to `emit`.
template <typename Emit>
void GenerateRecords(const SynthWorkloadConfig& config, Emit&& emit) {
  MOBISIM_CHECK(config.file_bytes > 0);
  MOBISIM_CHECK(config.dataset_bytes >= config.file_bytes);
  MOBISIM_CHECK(config.read_fraction + config.write_fraction <= 1.0);

  const std::uint32_t file_count =
      static_cast<std::uint32_t>(config.dataset_bytes / config.file_bytes);
  const std::uint32_t hot_count = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(config.hot_data_fraction * file_count));

  Rng rng(config.seed);

  // Tracks whether an erase emptied a file; the next write then rewrites the
  // whole file unit, as the paper specifies.
  std::vector<bool> erased(file_count, false);

  SimTime now = 0;
  for (std::uint32_t i = 0; i < config.op_count; ++i) {
    // Inter-arrival.
    double gap_ms;
    if (rng.Chance(config.short_fraction)) {
      gap_ms = rng.Uniform(0.0, 2.0 * config.short_mean_ms);
    } else {
      gap_ms = config.long_base_ms + rng.Exponential(config.long_exp_mean_ms);
    }
    now += UsFromMs(gap_ms);

    // File selection: hot files are [0, hot_count).
    std::uint32_t file_id;
    if (rng.Chance(config.hot_access_fraction)) {
      file_id = static_cast<std::uint32_t>(rng.UniformInt(0, hot_count - 1));
    } else {
      file_id = static_cast<std::uint32_t>(rng.UniformInt(hot_count, file_count - 1));
    }

    TraceRecord rec;
    rec.time_us = now;
    rec.file_id = file_id;

    const double op_draw = rng.NextDouble();
    if (op_draw < config.read_fraction && !erased[file_id]) {
      rec.op = OpType::kRead;
    } else if (op_draw < config.read_fraction + config.write_fraction || erased[file_id]) {
      rec.op = OpType::kWrite;
    } else {
      rec.op = OpType::kErase;
      erased[file_id] = true;
      rec.offset = 0;
      rec.size_bytes = 0;
      emit(rec);
      continue;
    }

    if (rec.op == OpType::kWrite && erased[file_id]) {
      // First write after an erase rewrites the entire file unit.
      rec.offset = 0;
      rec.size_bytes = config.file_bytes;
      erased[file_id] = false;
    } else {
      // Access size: 40% 0.5 KB, 40% (0.5, 16] KB, 20% (16, 32] KB.
      const double size_draw = rng.NextDouble();
      std::uint32_t size;
      if (size_draw < 0.40) {
        size = 512;
      } else if (size_draw < 0.80) {
        size = static_cast<std::uint32_t>(rng.Uniform(512.0, 16.0 * 1024.0));
      } else {
        size = static_cast<std::uint32_t>(rng.Uniform(16.0 * 1024.0, 32.0 * 1024.0));
      }
      size = std::min(size, config.file_bytes);
      const std::uint64_t max_offset = config.file_bytes - size;
      rec.offset = static_cast<std::uint64_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(max_offset)));
      rec.size_bytes = size;
    }
    emit(rec);
  }
}

}  // namespace

Trace GenerateSynthWorkload(const SynthWorkloadConfig& config) {
  Trace trace;
  trace.name = "synth";
  trace.block_bytes = kBlockBytes;
  trace.records.reserve(config.op_count);
  GenerateRecords(config, [&trace](const TraceRecord& rec) { trace.records.push_back(rec); });
  return trace;
}

TraceImage LowerSynthWorkload(const SynthWorkloadConfig& config) {
  BlockMapper mapper("synth", kBlockBytes, config.op_count);
  GenerateRecords(config, [&mapper](const TraceRecord& rec) { mapper.Append(rec); });
  return mapper.Finish();
}

}  // namespace mobisim
