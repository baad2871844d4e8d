// Declarative description of a parameter sweep: a base SimConfig plus a list
// of values per swept dimension.  The cross product enumerates to concrete
// ExperimentPoints in a fixed, documented order, so results are addressable
// by index and parallel execution can never reorder them.
//
// Spec text reuses the config_text `key = value` syntax.  Non-sweep keys are
// applied to the base configuration (see src/core/config_text.h); sweep keys
// take comma-separated lists:
//   devices            device catalog names
//   workloads          mac | dos | hp | synth
//   utilizations       flash live fractions (0..1)
//   dram_sizes         DRAM buffer-cache sizes (k/m/g suffixes)
//   sram_sizes         SRAM write-buffer sizes
//   backends           average-cost | geometry (simulator backend variants)
//   ftl                log | page-diff | fat-remap | cleaner names (one
//                      dimension spanning FTLs and log cleaners)
//   cleaning_policies  greedy | cost-benefit | wear-aware
//   power_loss_intervals  mean seconds between power losses (0 = none)
//   seeds              workload generator seeds (integers)
//   scale              workload scale factor (single value, not swept)
//   replicas           independent re-runs per point (seed-derived; default 1)
// An omitted dimension sweeps nothing: the base config's value is used.
//
// `replicas = N` re-runs every grid cell N times with derived seeds
// (ReplicaSeed below), innermost in the enumeration.  Replicated points are
// how regression tracking estimates the noise floor: the spread across
// replicas of the same cell is what seed choice alone does to each metric.
#ifndef MOBISIM_SRC_RUNNER_EXPERIMENT_SPEC_H_
#define MOBISIM_SRC_RUNNER_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/config_text.h"
#include "src/core/sim_config.h"

namespace mobisim {

struct ExperimentSpec {
  // Same default as mobisim_cli: Intel card, 2-MB DRAM cache.
  SimConfig base = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
  std::vector<DeviceSpec> devices;
  std::vector<std::string> workloads;
  std::vector<double> utilizations;
  std::vector<std::uint64_t> dram_sizes;
  std::vector<std::uint64_t> sram_sizes;
  // Simulator backend variants ("average-cost" | "geometry"); see the
  // `backends` key.  Empty keeps base.use_disk_geometry.
  std::vector<std::string> backends;
  // FTL policy dimension (`ftl` key): cleaner names sweep the log-structured
  // cleaners, FTL names swap the translation layer.
  std::vector<FtlSelection> ftl_policies;
  std::vector<CleaningPolicy> cleaning_policies;
  std::vector<double> power_loss_intervals;
  std::vector<std::uint64_t> seeds;
  double scale = 1.0;
  std::size_t replicas = 1;
};

// One cell of the grid: a fully resolved configuration plus the workload to
// generate.  `index` is the position in enumeration order; `replica` is the
// re-run number within the cell (0 for the base seed).
struct ExperimentPoint {
  std::size_t index = 0;
  std::string workload = "synth";
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::size_t replica = 0;
  SimConfig config;
};

// Workload seed for replica k of a cell whose listed seed is `seed`.
// Replica 0 keeps the listed seed (so `replicas = 1` leaves grids unchanged);
// later replicas use a splitmix64-style derivation, stable across platforms.
std::uint64_t ReplicaSeed(std::uint64_t seed, std::size_t replica);

// Number of points the spec enumerates (empty dimensions count as 1).
std::size_t GridSize(const ExperimentSpec& spec);

// The optional column groups every row of the grid carries:
// ColumnGroupsOf(spec.base), plus kFtl when the `ftl` or `backends` axis is
// listed and kFault when `power_loss_intervals` is.
ColumnGroups ColumnGroupsOf(const ExperimentSpec& spec);

// Expands the cross product.  Enumeration order nests, outermost first:
// device, workload, utilization, dram, sram, backend, ftl, cleaning policy,
// power-loss interval, seed — i.e. the seed varies fastest.  Every point's
// config.export_columns is ColumnGroupsOf(spec), so all rows in a sweep
// share one schema.
std::vector<ExperimentPoint> EnumerateGrid(const ExperimentSpec& spec);

// Keeps only the points of shard `shard` out of `shards` (index % shards ==
// shard).  Point indices stay global, so shard outputs from different
// processes or machines merge by concatenation and still join by index.
// This is the one sharding rule every dispatcher and worker must share.
std::vector<ExperimentPoint> FilterShard(std::vector<ExperimentPoint> points,
                                         std::size_t shard, std::size_t shards);

// Keeps only the points whose global index appears in `indices` (order and
// duplicates in `indices` are irrelevant; enumeration order is preserved).
// This is how a dispatcher retries individual failed points of a shard.
std::vector<ExperimentPoint> FilterPoints(std::vector<ExperimentPoint> points,
                                          const std::vector<std::size_t>& indices);

// Applies one `key = value` line: sweep keys here, anything else delegated to
// ApplyConfigAssignment on the base config.  False + `error` on bad input,
// including an empty item in a sweep list (`seeds = 1,,2`, `devices =`).
bool ApplySpecAssignment(ExperimentSpec* spec, const std::string& key,
                         const std::string& value, std::string* error);

// Rejects an explicit list for an axis no device in the grid reads, whose
// points would share one simulation under different labels: `ftl` when
// every device is a disk, `utilizations` when every device is a magnetic
// disk, `backends` when none is.  Run once every assignment has landed.
// False + `error` naming the axis.
bool CheckGridAxes(const ExperimentSpec& spec, std::string* error);

// Parses a whole spec file ('#' comments, blank lines, `key = value`), then
// runs CheckGridAxes.
std::optional<ExperimentSpec> ParseExperimentSpec(const std::string& text,
                                                  std::string* error);

// One-line summary ("2 devices x 3 workloads x 6 utilizations = 36 points").
std::string DescribeSpec(const ExperimentSpec& spec);

// Canonical full-fidelity rendering of the spec: every sweep dimension and
// every base-config field, one `key = value` line each, in a fixed order with
// fixed number formatting.  Two spec files that parse to the same grid (e.g.
// the same lines reordered, extra comments, different whitespace) produce the
// same canonical text; any change to the grid or the base configuration
// changes it.
std::string CanonicalSpecText(const ExperimentSpec& spec);

// 16-hex-digit FNV-1a fingerprint of CanonicalSpecText.  Persisted in result
// metadata headers so regression diffs can verify both runs executed the same
// experiment.
std::string SpecFingerprint(const ExperimentSpec& spec);

}  // namespace mobisim

#endif  // MOBISIM_SRC_RUNNER_EXPERIMENT_SPEC_H_
