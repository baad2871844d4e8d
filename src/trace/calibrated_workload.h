// Synthetic stand-ins for the paper's mac, dos, and hp traces.
//
// The original traces (PowerBook Duo 230 file-level traces, Kester Li's
// Berkeley dos traces, and the Ruemmler/Wilkes HP-UX disk traces) are not
// publicly available.  Every simulation result in the paper is a function of
// the workload statistics its Table 3 reports, so we generate workloads
// calibrated to those statistics: duration, distinct Kbytes accessed, read
// fraction, file-system block size, mean read/write sizes in blocks, and the
// mean / max / sigma of the inter-arrival time, plus a hot/cold locality
// structure and (for dos) deletions.
#ifndef MOBISIM_SRC_TRACE_CALIBRATED_WORKLOAD_H_
#define MOBISIM_SRC_TRACE_CALIBRATED_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "src/trace/synth_workload.h"
#include "src/trace/trace_image.h"
#include "src/trace/trace_record.h"
#include "src/util/rng.h"

namespace mobisim {

struct CalibratedWorkloadConfig {
  std::string name;
  // Table 3 targets.
  double duration_sec = 0.0;
  std::uint64_t distinct_kbytes = 0;
  double read_fraction = 0.5;
  std::uint32_t block_bytes = 1024;
  double mean_read_blocks = 1.0;
  double mean_write_blocks = 1.0;
  // Inter-arrival model: `short_fraction` of gaps are uniform in
  // [0, 2*short_mean_sec]; the rest are exponential with mean long_mean_sec,
  // capped at max_gap_sec.  Calibrated per trace so that the overall
  // mean/sigma/max land near Table 3.
  double short_fraction = 0.95;
  double short_mean_sec = 0.05;
  double long_mean_sec = 1.0;
  double max_gap_sec = 100.0;
  // Fraction of operations that delete a file (dos only in the paper).
  double delete_fraction = 0.0;
  // File population shape.
  std::uint32_t file_count = 1000;
  double mean_file_kbytes = 20.0;
  // Zipf skew of file popularity; ~0.9 concentrates most traffic on a small
  // working set, which is what makes a 2-MB DRAM cache effective.
  double zipf_skew = 0.9;
  // Probability that an access continues sequentially from the previous
  // access to the same file rather than starting at a random offset.
  double sequential_fraction = 0.5;
  // Working-set drift: the Zipf popularity ranking rotates through the file
  // population this many times over the trace.  Non-stationary popularity is
  // what lets a trace touch far more data than the cache holds while still
  // enjoying a high hit rate -- exactly the structure of the paper's traces
  // (22000 distinct KB under a 2-MB cache with ~millisecond mean reads).
  double drift_cycles = 0.0;
  std::uint64_t seed = 1;
};

// Presets matching Table 3 of the paper.  `scale` in (0, 1] shrinks the
// operation count (and hence duration) proportionally for fast tests.
CalibratedWorkloadConfig MacWorkloadConfig(double scale = 1.0);
CalibratedWorkloadConfig DosWorkloadConfig(double scale = 1.0);
CalibratedWorkloadConfig HpWorkloadConfig(double scale = 1.0);

Trace GenerateCalibratedWorkload(const CalibratedWorkloadConfig& config);

// True for the named presets: "synth" and the calibrated "mac", "dos"
// (alias "pc") and "hp".  The one table of workload names every driver and
// the trace cache ask.
bool IsNamedWorkload(const std::string& name);

// The generator configurations the named presets resolve to at (scale,
// seed): "synth" scales its op count; "mac", "dos" (alias "pc") and "hp"
// take their Table 3 preset, whose seed `seed` offsets.
// NamedCalibratedConfig MOBISIM_CHECK-fails on any other name.
SynthWorkloadConfig NamedSynthConfig(double scale, std::uint64_t seed);
CalibratedWorkloadConfig NamedCalibratedConfig(const std::string& name, double scale,
                                               std::uint64_t seed);

// Convenience: generate one of the named presets ("mac", "dos", "hp",
// "synth") at the given scale.  MOBISIM_CHECK-fails on unknown names.
Trace GenerateNamedWorkload(const std::string& name, double scale = 1.0,
                            std::uint64_t seed = 1);
// The named preset lowered as it is generated: the bytes of
// TraceImage::Build(GenerateNamedWorkload(name, scale, seed)).
TraceImage LowerNamedWorkload(const std::string& name, double scale = 1.0,
                              std::uint64_t seed = 1);

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_CALIBRATED_WORKLOAD_H_
