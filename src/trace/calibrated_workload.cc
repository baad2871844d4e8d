#include "src/trace/calibrated_workload.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/trace/block_mapper.h"
#include "src/trace/synth_workload.h"
#include "src/util/check.h"

namespace mobisim {

CalibratedWorkloadConfig MacWorkloadConfig(double scale) {
  CalibratedWorkloadConfig c;
  c.name = "mac";
  c.duration_sec = 3.5 * 3600 * scale;
  c.distinct_kbytes = 22000;
  c.read_fraction = 0.50;
  c.block_bytes = 1024;
  c.mean_read_blocks = 1.3;
  c.mean_write_blocks = 1.2;
  c.short_fraction = 0.97;
  c.short_mean_sec = 0.04;
  c.long_mean_sec = 1.33;
  c.max_gap_sec = 90.8;
  c.delete_fraction = 0.0;
  c.file_count = 1100;
  c.mean_file_kbytes = 20.0;
  c.zipf_skew = 1.30;
  c.sequential_fraction = 0.65;
  c.drift_cycles = 0.9;
  c.seed = 101;
  return c;
}

CalibratedWorkloadConfig DosWorkloadConfig(double scale) {
  CalibratedWorkloadConfig c;
  c.name = "dos";
  c.duration_sec = 1.5 * 3600 * scale;
  c.distinct_kbytes = 16300;
  c.read_fraction = 0.24;
  c.block_bytes = 512;
  c.mean_read_blocks = 3.8;
  c.mean_write_blocks = 3.4;
  c.short_fraction = 0.998;
  c.short_mean_sec = 0.15;
  c.long_mean_sec = 189.0;
  c.max_gap_sec = 713.0;
  c.delete_fraction = 0.02;
  c.file_count = 815;
  c.mean_file_kbytes = 20.0;
  c.zipf_skew = 1.0;
  c.drift_cycles = 0.9;
  c.seed = 202;
  return c;
}

CalibratedWorkloadConfig HpWorkloadConfig(double scale) {
  CalibratedWorkloadConfig c;
  c.name = "hp";
  c.duration_sec = 4.4 * 24 * 3600 * scale;
  c.distinct_kbytes = 32000;
  c.read_fraction = 0.38;
  c.block_bytes = 1024;
  c.mean_read_blocks = 4.3;
  c.mean_write_blocks = 6.2;
  // hp is bursty: request trains with ~0.5-s spacing separated by long
  // silences (its sigma of 112 s against an 11.1-s mean demands a heavy
  // tail; the 30-min max matches Table 3).
  c.short_fraction = 0.98;
  c.short_mean_sec = 0.5;
  c.long_mean_sec = 545.0;
  c.max_gap_sec = 1800.0;
  c.delete_fraction = 0.0;
  c.file_count = 1600;
  c.mean_file_kbytes = 20.0;
  c.zipf_skew = 1.0;
  c.drift_cycles = 0.9;
  c.seed = 303;
  return c;
}

namespace {

std::uint64_t RecordCount(const CalibratedWorkloadConfig& config) {
  const double mean_gap_sec = config.short_fraction * config.short_mean_sec +
                              (1.0 - config.short_fraction) * config.long_mean_sec;
  return std::max<std::uint64_t>(16,
                                 static_cast<std::uint64_t>(config.duration_sec / mean_gap_sec));
}

// Generates the workload's RecordCount(config) records in order, handing
// each to `emit`.
template <typename Emit>
void GenerateRecords(const CalibratedWorkloadConfig& config, Emit&& emit) {
  MOBISIM_CHECK(config.file_count > 0);
  MOBISIM_CHECK(config.block_bytes > 0);
  MOBISIM_CHECK(config.duration_sec > 0.0);

  Rng rng(config.seed);
  const std::uint32_t block = config.block_bytes;

  // File population: exponential sizes around the mean, minimum one block.
  struct FileState {
    std::uint32_t size_blocks = 1;
    std::uint64_t next_seq_block = 0;  // sequential-run cursor
    bool erased = false;
  };
  std::vector<FileState> files(config.file_count);
  const double mean_file_blocks = config.mean_file_kbytes * 1024.0 / block;
  for (FileState& f : files) {
    const double drawn = rng.Exponential(mean_file_blocks);
    const double capped = std::min(drawn, 16.0 * mean_file_blocks);
    f.size_blocks = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(capped));
  }

  // Popularity: Zipf over ranks, with ranks shuffled onto file ids so hot
  // files are scattered across the logical address space.
  ZipfDistribution zipf(config.file_count, config.zipf_skew);
  std::vector<std::uint32_t> rank_to_file(config.file_count);
  std::iota(rank_to_file.begin(), rank_to_file.end(), 0);
  for (std::size_t i = rank_to_file.size() - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.UniformInt(0, static_cast<int64_t>(i)));
    std::swap(rank_to_file[i], rank_to_file[j]);
  }

  const std::uint64_t op_count = RecordCount(config);
  const std::uint64_t file_count = config.file_count;
  const GeometricDistribution read_sizes(config.mean_read_blocks);
  const GeometricDistribution write_sizes(config.mean_write_blocks);
  SimTime now = 0;
  for (std::uint64_t i = 0; i < op_count; ++i) {
    double gap_sec;
    if (rng.Chance(config.short_fraction)) {
      gap_sec = rng.Uniform(0.0, 2.0 * config.short_mean_sec);
    } else {
      gap_sec = rng.Exponential(config.long_mean_sec);
    }
    gap_sec = std::min(gap_sec, config.max_gap_sec);
    now += UsFromSec(gap_sec);

    const std::uint64_t drift = static_cast<std::uint64_t>(
        static_cast<double>(i) / static_cast<double>(op_count) * config.drift_cycles *
        static_cast<double>(config.file_count));
    // (rank + drift) mod file_count.  With under one drift cycle the sum
    // stays below twice file_count, where a subtraction does.
    std::uint64_t rank = zipf.Sample(rng) + drift;
    if (rank >= 2 * file_count) {
      rank %= file_count;
    } else if (rank >= file_count) {
      rank -= file_count;
    }
    const std::uint32_t file_id = rank_to_file[rank];
    FileState& file = files[file_id];

    TraceRecord rec;
    rec.time_us = now;
    rec.file_id = file_id;

    if (config.delete_fraction > 0.0 && !file.erased && rng.Chance(config.delete_fraction)) {
      rec.op = OpType::kErase;
      file.erased = true;
      emit(rec);
      continue;
    }

    const bool is_read = !file.erased && rng.Chance(config.read_fraction);
    rec.op = is_read ? OpType::kRead : OpType::kWrite;
    const GeometricDistribution& sizes = is_read ? read_sizes : write_sizes;
    std::uint32_t size_blocks = std::min(sizes.Sample(rng), file.size_blocks);

    std::uint64_t start_block;
    if (file.erased) {
      // First write after a delete recreates the file from its beginning.
      start_block = 0;
      file.erased = false;
    } else if (rng.Chance(config.sequential_fraction) &&
               file.next_seq_block + size_blocks <= file.size_blocks) {
      start_block = file.next_seq_block;
    } else {
      const std::uint64_t max_start = file.size_blocks - size_blocks;
      start_block =
          static_cast<std::uint64_t>(rng.UniformInt(0, static_cast<std::int64_t>(max_start)));
    }
    file.next_seq_block = start_block + size_blocks;
    if (file.next_seq_block >= file.size_blocks) {
      file.next_seq_block = 0;
    }

    rec.offset = start_block * block;
    rec.size_bytes = size_blocks * block;
    emit(rec);
  }
}

// The records lowered into their image as they are generated, with no
// file-level Trace.
TraceImage LowerCalibratedWorkload(const CalibratedWorkloadConfig& config) {
  BlockMapper mapper(config.name, config.block_bytes, RecordCount(config));
  GenerateRecords(config, [&mapper](const TraceRecord& rec) { mapper.Append(rec); });
  return mapper.Finish();
}

}  // namespace

Trace GenerateCalibratedWorkload(const CalibratedWorkloadConfig& config) {
  Trace trace;
  trace.name = config.name;
  trace.block_bytes = config.block_bytes;
  trace.records.reserve(RecordCount(config));
  GenerateRecords(config, [&trace](const TraceRecord& rec) { trace.records.push_back(rec); });
  return trace;
}

SynthWorkloadConfig NamedSynthConfig(double scale, std::uint64_t seed) {
  SynthWorkloadConfig config;
  config.op_count =
      std::max<std::uint32_t>(16, static_cast<std::uint32_t>(config.op_count * scale));
  config.seed = seed;
  return config;
}

namespace {

// The calibrated presets by name.  The paper names the dos workload both
// "pc" (section 4.1) and "dos".
struct CalibratedPreset {
  const char* name;
  CalibratedWorkloadConfig (*config)(double scale);
};
const CalibratedPreset kCalibratedPresets[] = {
    {"mac", MacWorkloadConfig},
    {"dos", DosWorkloadConfig},
    {"pc", DosWorkloadConfig},
    {"hp", HpWorkloadConfig},
};

const CalibratedPreset* FindCalibratedPreset(const std::string& name) {
  for (const CalibratedPreset& preset : kCalibratedPresets) {
    if (name == preset.name) {
      return &preset;
    }
  }
  return nullptr;
}

}  // namespace

bool IsNamedWorkload(const std::string& name) {
  return name == "synth" || FindCalibratedPreset(name) != nullptr;
}

CalibratedWorkloadConfig NamedCalibratedConfig(const std::string& name, double scale,
                                               std::uint64_t seed) {
  const CalibratedPreset* preset = FindCalibratedPreset(name);
  MOBISIM_CHECK(preset != nullptr && "unknown workload name");
  CalibratedWorkloadConfig config = preset->config(scale);
  config.seed += seed;
  return config;
}

Trace GenerateNamedWorkload(const std::string& name, double scale, std::uint64_t seed) {
  if (name == "synth") {
    return GenerateSynthWorkload(NamedSynthConfig(scale, seed));
  }
  return GenerateCalibratedWorkload(NamedCalibratedConfig(name, scale, seed));
}

TraceImage LowerNamedWorkload(const std::string& name, double scale, std::uint64_t seed) {
  if (name == "synth") {
    return LowerSynthWorkload(NamedSynthConfig(scale, seed));
  }
  return LowerCalibratedWorkload(NamedCalibratedConfig(name, scale, seed));
}

}  // namespace mobisim
