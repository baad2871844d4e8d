// The synthetic workload of section 4.1.
//
// 6 Mbytes of 32-Kbyte files.  7/8 of accesses go to 1/8 of the data (the
// hot-and-cold structure borrowed from the Sprite LFS cleaning evaluation).
// Operations are 60% reads, 35% writes, 5% erases; an erase deletes a whole
// file and the next write to that file rewrites the full 32-Kbyte unit.
// Access sizes: 40% are 0.5 Kbytes, 40% uniform in (0.5, 16] Kbytes, 20%
// uniform in (16, 32] Kbytes.  Inter-arrival times are bimodal: 90% uniform
// with a 10-ms mean, 10% are 20 ms plus an exponential with a 3-s mean.
#ifndef MOBISIM_SRC_TRACE_SYNTH_WORKLOAD_H_
#define MOBISIM_SRC_TRACE_SYNTH_WORKLOAD_H_

#include <cstdint>

#include "src/trace/trace_image.h"
#include "src/trace/trace_record.h"
#include "src/util/rng.h"

namespace mobisim {

struct SynthWorkloadConfig {
  // Total dataset and file unit; 6 MB of 32-KB files per the paper.
  std::uint64_t dataset_bytes = 6 * 1024 * 1024;
  std::uint32_t file_bytes = 32 * 1024;
  std::uint32_t op_count = 20000;
  // Hot-and-cold skew: `hot_access_fraction` of accesses hit
  // `hot_data_fraction` of the files.
  double hot_access_fraction = 7.0 / 8.0;
  double hot_data_fraction = 1.0 / 8.0;
  // Operation mix.
  double read_fraction = 0.60;
  double write_fraction = 0.35;  // remainder is erases
  // Inter-arrival structure.
  double short_fraction = 0.90;
  double short_mean_ms = 10.0;
  double long_base_ms = 20.0;
  double long_exp_mean_ms = 3000.0;
  std::uint64_t seed = 42;
};

// Generates the workload; the trace's block size is 512 bytes (the smallest
// access unit the workload produces).
Trace GenerateSynthWorkload(const SynthWorkloadConfig& config);
// The same records lowered into their image as they are generated: the
// bytes of TraceImage::Build(GenerateSynthWorkload(config)).
TraceImage LowerSynthWorkload(const SynthWorkloadConfig& config);

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_SYNTH_WORKLOAD_H_
