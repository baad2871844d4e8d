#include "src/runner/experiment_spec.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <sstream>

#include "src/core/config_text.h"
#include "src/trace/calibrated_workload.h"
#include "src/util/hash.h"
#include "src/util/parse.h"

namespace mobisim {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

std::string Trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

// Calls `parse` on each trimmed comma-separated item of `value`, stopping at
// the first false (`parse` then has set `error`).  An empty item would
// silently shorten a sweep list, and an empty list would fall back to the
// base config, so either fails here, naming `key`.
template <typename Parse>
bool ForEachListItem(const std::string& key, const std::string& value, std::string* error,
                     Parse parse) {
  std::istringstream in(value + ",");  // the added comma ends the last item
  for (std::string item; std::getline(in, item, ',');) {
    item = Trim(item);
    if (item.empty()) {
      SetError(error, "empty item in " + key + " list '" + value + "'");
      return false;
    }
    if (!parse(item)) {
      return false;
    }
  }
  return true;
}

// Strict fraction in [0, 1): ParseFiniteDouble rejects nan (which would
// pass the range checks below — nan compares false against everything) and
// overflowing literals like 1e999.
std::optional<double> ParseFraction(const std::string& text) {
  const auto v = ParseFiniteDouble(text);
  if (!v || *v < 0.0 || *v >= 1.0) {
    return std::nullopt;
  }
  return v;
}

// Strict decimal uint64: unlike std::stoull this rejects "-1" (which would
// silently wrap to 2^64-1) and overflow instead of crashing or wrapping.
std::optional<std::uint64_t> ParseU64(const std::string& text) {
  return ParseUint64(text);
}

// Effective size of a dimension: empty sweeps nothing but still contributes
// one point (the base value).
template <typename T>
std::size_t DimSize(const std::vector<T>& dim) {
  return dim.empty() ? 1 : dim.size();
}

// Round-trip-exact double rendering, matching ResultRow::AddNumber, so the
// canonical text (and thus the fingerprint) is insensitive to how the value
// was originally spelled but sensitive to any actual change.
std::string CanonNumber(double value) { return CanonicalDouble(value); }

}  // namespace

std::uint64_t ReplicaSeed(std::uint64_t seed, std::size_t replica) {
  if (replica == 0) {
    return seed;
  }
  // splitmix64 of (seed, replica): well-distributed, platform-stable.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(replica);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t GridSize(const ExperimentSpec& spec) {
  return DimSize(spec.devices) * DimSize(spec.workloads) * DimSize(spec.utilizations) *
         DimSize(spec.dram_sizes) * DimSize(spec.sram_sizes) * DimSize(spec.backends) *
         DimSize(spec.ftl_policies) * DimSize(spec.cleaning_policies) *
         DimSize(spec.power_loss_intervals) * DimSize(spec.seeds) *
         (spec.replicas == 0 ? 1 : spec.replicas);
}

ColumnGroups ColumnGroupsOf(const ExperimentSpec& spec) {
  // A listed axis turns on the group whose columns show its values.
  return ColumnGroupsOf(spec.base) |
         ColumnGroups()
             .With(ColumnGroup::kFtl, !spec.ftl_policies.empty() || !spec.backends.empty())
             .With(ColumnGroup::kFault, !spec.power_loss_intervals.empty());
}

std::vector<ExperimentPoint> EnumerateGrid(const ExperimentSpec& spec) {
  // Materialize each dimension with its fallback so the nest below is uniform.
  const std::vector<DeviceSpec> devices =
      spec.devices.empty() ? std::vector<DeviceSpec>{spec.base.device} : spec.devices;
  const std::vector<std::string> workloads =
      spec.workloads.empty() ? std::vector<std::string>{"synth"} : spec.workloads;
  const std::vector<double> utilizations =
      spec.utilizations.empty() ? std::vector<double>{spec.base.flash_utilization}
                                : spec.utilizations;
  const std::vector<std::uint64_t> dram_sizes =
      spec.dram_sizes.empty() ? std::vector<std::uint64_t>{spec.base.dram_bytes}
                              : spec.dram_sizes;
  const std::vector<std::uint64_t> sram_sizes =
      spec.sram_sizes.empty() ? std::vector<std::uint64_t>{spec.base.sram_bytes}
                              : spec.sram_sizes;
  const std::vector<std::string> backends =
      spec.backends.empty()
          ? std::vector<std::string>{spec.base.use_disk_geometry ? "geometry"
                                                                 : "average-cost"}
          : spec.backends;
  const std::vector<FtlSelection> ftl_policies =
      spec.ftl_policies.empty()
          ? std::vector<FtlSelection>{FtlSelection{spec.base.ftl_policy, std::nullopt}}
          : spec.ftl_policies;
  const std::vector<CleaningPolicy> policies =
      spec.cleaning_policies.empty()
          ? std::vector<CleaningPolicy>{spec.base.cleaning_policy}
          : spec.cleaning_policies;
  const std::vector<double> power_loss_intervals =
      spec.power_loss_intervals.empty()
          ? std::vector<double>{SecFromUs(spec.base.fault.power_loss_interval_us)}
          : spec.power_loss_intervals;
  const std::vector<std::uint64_t> seeds =
      spec.seeds.empty() ? std::vector<std::uint64_t>{1} : spec.seeds;
  const std::size_t replicas = spec.replicas == 0 ? 1 : spec.replicas;
  // Every point exports the grid's groups: one schema per sweep.
  const ColumnGroups columns = ColumnGroupsOf(spec);

  std::vector<ExperimentPoint> points;
  points.reserve(GridSize(spec));
  for (const DeviceSpec& device : devices) {
    for (const std::string& workload : workloads) {
      for (const double utilization : utilizations) {
        for (const std::uint64_t dram : dram_sizes) {
          for (const std::uint64_t sram : sram_sizes) {
            for (const std::string& backend : backends) {
              for (const FtlSelection& ftl : ftl_policies) {
                for (const CleaningPolicy policy : policies) {
                  for (const double power_loss_sec : power_loss_intervals) {
                    for (const std::uint64_t seed : seeds) {
                      for (std::size_t replica = 0; replica < replicas; ++replica) {
                        ExperimentPoint point;
                        point.index = points.size();
                        point.workload = workload;
                        point.scale = spec.scale;
                        point.seed = ReplicaSeed(seed, replica);
                        point.replica = replica;
                        point.config = spec.base;
                        point.config.device = device;
                        point.config.flash_utilization = utilization;
                        point.config.dram_bytes = dram;
                        point.config.sram_bytes = sram;
                        point.config.use_disk_geometry = backend == "geometry";
                        // Cleaning dimension first; an ftl value that names a
                        // cleaner overrides it (the two dimensions share the
                        // cleaner axis on purpose).
                        point.config.cleaning_policy = policy;
                        point.config.ftl_policy = ftl.kind;
                        if (ftl.cleaner) {
                          point.config.cleaning_policy = *ftl.cleaner;
                        }
                        point.config.fault.power_loss_interval_us =
                            UsFromSec(power_loss_sec);
                        point.config.export_columns = columns;
                        points.push_back(std::move(point));
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

std::vector<ExperimentPoint> FilterShard(std::vector<ExperimentPoint> points,
                                         std::size_t shard, std::size_t shards) {
  if (shards <= 1) {
    return points;
  }
  std::vector<ExperimentPoint> mine;
  for (ExperimentPoint& point : points) {
    if (point.index % shards == shard) {
      mine.push_back(std::move(point));
    }
  }
  return mine;
}

std::vector<ExperimentPoint> FilterPoints(std::vector<ExperimentPoint> points,
                                          const std::vector<std::size_t>& indices) {
  std::vector<ExperimentPoint> mine;
  for (ExperimentPoint& point : points) {
    if (std::find(indices.begin(), indices.end(), point.index) != indices.end()) {
      mine.push_back(std::move(point));
    }
  }
  return mine;
}

bool ApplySpecAssignment(ExperimentSpec* spec, const std::string& raw_key,
                         const std::string& raw_value, std::string* error) {
  std::string key = Trim(raw_key);
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  const std::string value = Trim(raw_value);

  if (key == "devices") {
    spec->devices.clear();
    return ForEachListItem(key, value, error, [&](const std::string& name) {
      const auto device = DeviceByName(name);
      if (!device) {
        SetError(error, "unknown device '" + name + "' in devices list");
        return false;
      }
      spec->devices.push_back(*device);
      return true;
    });
  }
  if (key == "workloads") {
    spec->workloads.clear();
    return ForEachListItem(key, value, error, [&](const std::string& name) {
      if (!IsNamedWorkload(name)) {
        SetError(error, "unknown workload '" + name + "' in workloads list");
        return false;
      }
      spec->workloads.push_back(name);
      return true;
    });
  }
  if (key == "utilizations") {
    spec->utilizations.clear();
    return ForEachListItem(key, value, error, [&](const std::string& item) {
      const auto v = ParseFraction(item);
      if (!v) {
        SetError(error, "bad utilization '" + item + "' (want fraction in [0, 1))");
        return false;
      }
      spec->utilizations.push_back(*v);
      return true;
    });
  }
  if (key == "dram_sizes" || key == "sram_sizes") {
    std::vector<std::uint64_t>& sizes = key == "dram_sizes" ? spec->dram_sizes : spec->sram_sizes;
    sizes.clear();
    return ForEachListItem(key, value, error, [&](const std::string& item) {
      const auto size = ParseSize(item);
      if (!size) {
        SetError(error, "bad size '" + item + "' in " + key);
        return false;
      }
      sizes.push_back(*size);
      return true;
    });
  }
  if (key == "backends") {
    spec->backends.clear();
    return ForEachListItem(key, value, error, [&](const std::string& item) {
      // Same lowering rule as every other name axis.
      const std::string v = NormalizeName(item);
      if (v != "average-cost" && v != "geometry") {
        SetError(error, "bad backend '" + item + "' (want average-cost|geometry)");
        return false;
      }
      spec->backends.push_back(v);
      return true;
    });
  }
  if (key == "ftl") {
    // The spec-level `ftl` is always the sweep dimension, even with a single
    // value, so one key spells the whole FTL axis of an ablation matrix.
    spec->ftl_policies.clear();
    return ForEachListItem(key, value, error, [&](const std::string& item) {
      const auto selection = FtlSelectionByName(item);
      if (!selection) {
        SetError(error, "bad ftl '" + item +
                            "' (want log|page-diff|fat-remap or a cleaner name)");
        return false;
      }
      spec->ftl_policies.push_back(*selection);
      return true;
    });
  }
  if (key == "cleaning_policies") {
    spec->cleaning_policies.clear();
    return ForEachListItem(key, value, error, [&](const std::string& item) {
      const auto policy = CleaningPolicyByName(item);
      if (!policy) {
        SetError(error, "bad cleaning policy '" + item +
                            "' (want greedy|cost-benefit|wear-aware)");
        return false;
      }
      spec->cleaning_policies.push_back(*policy);
      return true;
    });
  }
  if (key == "power_loss_intervals") {
    spec->power_loss_intervals.clear();
    return ForEachListItem(key, value, error, [&](const std::string& item) {
      const auto v = ParseFiniteDouble(item);
      if (!v || *v < 0.0) {
        SetError(error,
                 "bad power-loss interval '" + item + "' (want seconds >= 0)");
        return false;
      }
      spec->power_loss_intervals.push_back(*v);
      return true;
    });
  }
  if (key == "seeds") {
    spec->seeds.clear();
    return ForEachListItem(key, value, error, [&](const std::string& item) {
      const auto seed = ParseU64(item);
      if (!seed) {
        SetError(error, "bad seed '" + item + "' (want unsigned integer)");
        return false;
      }
      spec->seeds.push_back(*seed);
      return true;
    });
  }
  if (key == "replicas") {
    const auto n = ParseU64(value);
    if (!n || *n == 0 || *n > 1000) {
      SetError(error, "bad replicas '" + value + "' (want integer in [1, 1000])");
      return false;
    }
    spec->replicas = static_cast<std::size_t>(*n);
    return true;
  }
  if (key == "scale") {
    const auto v = ParseFiniteDouble(value);
    if (!v || *v <= 0.0) {
      SetError(error, "bad scale '" + value + "' (want finite number > 0)");
      return false;
    }
    spec->scale = *v;
    return true;
  }
  // Everything else is a base-config key.
  return ApplyConfigAssignment(&spec->base, key, value, error);
}

bool CheckGridAxes(const ExperimentSpec& spec, std::string* error) {
  const std::vector<DeviceSpec> devices =
      spec.devices.empty() ? std::vector<DeviceSpec>{spec.base.device} : spec.devices;
  const auto is_read = [&](const char* axis, bool listed, const char* readers, auto reads) {
    if (!listed || std::any_of(devices.begin(), devices.end(), reads)) {
      return true;
    }
    SetError(error, std::string("the ") + axis + " axis is read by no device in the grid (only " +
                        readers + " read it)");
    return false;
  };
  const auto is_disk = [](const DeviceSpec& d) { return d.kind == DeviceKind::kMagneticDisk; };
  const auto has_ftl = [](const DeviceSpec& d) {
    return d.kind == DeviceKind::kFlashCard || d.kind == DeviceKind::kNandSsd;
  };
  return is_read("ftl", !spec.ftl_policies.empty(), "flash cards and NAND SSDs", has_ftl) &&
         is_read("utilizations", !spec.utilizations.empty(), "flash devices",
                 std::not_fn(is_disk)) &&
         is_read("backends", !spec.backends.empty(), "magnetic disks", is_disk);
}

std::optional<ExperimentSpec> ParseExperimentSpec(const std::string& text,
                                                  std::string* error) {
  ExperimentSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      SetError(error, "line " + std::to_string(line_no) + ": expected key = value");
      return std::nullopt;
    }
    std::string assign_error;
    if (!ApplySpecAssignment(&spec, line.substr(0, eq), line.substr(eq + 1),
                             &assign_error)) {
      SetError(error, "line " + std::to_string(line_no) + ": " + assign_error);
      return std::nullopt;
    }
  }
  if (!CheckGridAxes(spec, error)) {
    return std::nullopt;
  }
  return spec;
}

std::string DescribeSpec(const ExperimentSpec& spec) {
  std::ostringstream out;
  out << DimSize(spec.devices) << " devices x " << DimSize(spec.workloads)
      << " workloads x " << DimSize(spec.utilizations) << " utilizations x "
      << DimSize(spec.dram_sizes) << " dram x " << DimSize(spec.sram_sizes)
      << " sram x " << DimSize(spec.cleaning_policies) << " policies x "
      << DimSize(spec.seeds) << " seeds";
  if (!spec.backends.empty()) {
    out << " x " << spec.backends.size() << " backends";
  }
  if (!spec.ftl_policies.empty()) {
    out << " x " << spec.ftl_policies.size() << " ftl";
  }
  if (!spec.power_loss_intervals.empty()) {
    out << " x " << spec.power_loss_intervals.size() << " power-loss intervals";
  }
  if (spec.replicas > 1) {
    out << " x " << spec.replicas << " replicas";
  }
  out << " = " << GridSize(spec) << " points (scale " << spec.scale << ")";
  return out.str();
}

namespace {

void AppendDeviceFields(std::ostringstream& out, const std::string& prefix,
                        const DeviceSpec& d) {
  out << prefix << ".name = " << d.name << "\n"
      << prefix << ".kind = " << static_cast<int>(d.kind) << "\n"
      << prefix << ".read_overhead_ms = " << CanonNumber(d.read_overhead_ms) << "\n"
      << prefix << ".write_overhead_ms = " << CanonNumber(d.write_overhead_ms) << "\n"
      << prefix << ".sequential_overhead_ms = " << CanonNumber(d.sequential_overhead_ms)
      << "\n"
      << prefix << ".read_kbps = " << CanonNumber(d.read_kbps) << "\n"
      << prefix << ".write_kbps = " << CanonNumber(d.write_kbps) << "\n"
      << prefix << ".internal_read_kbps = " << CanonNumber(d.internal_read_kbps) << "\n"
      << prefix << ".internal_write_kbps = " << CanonNumber(d.internal_write_kbps)
      << "\n"
      << prefix << ".spinup_ms = " << CanonNumber(d.spinup_ms) << "\n"
      << prefix << ".erase_segment_bytes = " << d.erase_segment_bytes << "\n"
      << prefix << ".erase_ms_per_segment = " << CanonNumber(d.erase_ms_per_segment)
      << "\n"
      << prefix << ".erase_kbps = " << CanonNumber(d.erase_kbps) << "\n"
      << prefix << ".pre_erased_write_kbps = " << CanonNumber(d.pre_erased_write_kbps)
      << "\n"
      << prefix << ".endurance_cycles = " << d.endurance_cycles << "\n"
      << prefix << ".read_w = " << CanonNumber(d.read_w) << "\n"
      << prefix << ".write_w = " << CanonNumber(d.write_w) << "\n"
      << prefix << ".erase_w = " << CanonNumber(d.erase_w) << "\n"
      << prefix << ".idle_w = " << CanonNumber(d.idle_w) << "\n"
      << prefix << ".sleep_w = " << CanonNumber(d.sleep_w) << "\n"
      << prefix << ".spinup_w = " << CanonNumber(d.spinup_w) << "\n";
  // NAND topology block only for NAND devices: no pre-existing spec carries
  // one, so every historical fingerprint is unchanged.
  if (d.kind == DeviceKind::kNandSsd) {
    out << prefix << ".nand.channels = " << d.nand.channels << "\n"
        << prefix << ".nand.dies = " << d.nand.dies_per_channel << "\n"
        << prefix << ".nand.planes = " << d.nand.planes_per_die << "\n"
        << prefix << ".nand.page_bytes = " << d.nand.page_bytes << "\n"
        << prefix << ".nand.pages_per_block = " << d.nand.pages_per_block << "\n"
        << prefix << ".nand.read_us = " << CanonNumber(d.nand.read_page_us) << "\n"
        << prefix << ".nand.program_us = " << CanonNumber(d.nand.program_page_us)
        << "\n"
        << prefix << ".nand.erase_ms = " << CanonNumber(d.nand.erase_block_ms) << "\n"
        << prefix << ".nand.channel_mbps = " << CanonNumber(d.nand.channel_mbps)
        << "\n";
  }
}

// `key =` then each of `values` as `render` spells it, one space before each.
template <typename T, typename Render>
void AppendList(std::ostringstream& out, const char* key, const std::vector<T>& values,
                Render render) {
  out << key << " =";
  for (const T& value : values) {
    out << " " << render(value);
  }
  out << "\n";
}

}  // namespace

std::string CanonicalSpecText(const ExperimentSpec& spec) {
  std::ostringstream out;
  const auto same = [](const auto& v) { return v; };
  AppendList(out, "devices", spec.devices, [](const DeviceSpec& d) { return d.name; });
  AppendList(out, "workloads", spec.workloads, same);
  AppendList(out, "utilizations", spec.utilizations, CanonNumber);
  AppendList(out, "dram_sizes", spec.dram_sizes, same);
  AppendList(out, "sram_sizes", spec.sram_sizes, same);
  AppendList(out, "cleaning_policies", spec.cleaning_policies, CleaningPolicyName);
  AppendList(out, "seeds", spec.seeds, same);
  out << "scale = " << CanonNumber(spec.scale) << "\n";
  out << "replicas = " << spec.replicas << "\n";

  const SimConfig& c = spec.base;
  AppendDeviceFields(out, "base.device", c.device);
  out << "base.dram = " << c.dram.name << "\n"
      << "base.dram_bytes = " << c.dram_bytes << "\n"
      << "base.sram = " << c.sram.name << "\n"
      << "base.sram_bytes = " << c.sram_bytes << "\n"
      << "base.capacity_bytes = " << c.capacity_bytes << "\n"
      << "base.auto_capacity = " << (c.auto_capacity ? 1 : 0) << "\n"
      << "base.flash_utilization = " << CanonNumber(c.flash_utilization) << "\n"
      << "base.interleave_prefill = " << (c.interleave_prefill ? 1 : 0) << "\n"
      << "base.spin_down_after_us = " << c.spin_down_after_us << "\n"
      << "base.spin_down_policy = " << static_cast<int>(c.spin_down_policy) << "\n"
      << "base.use_disk_geometry = " << (c.use_disk_geometry ? 1 : 0) << "\n"
      << "base.background_cleaning = " << (c.background_cleaning ? 1 : 0) << "\n"
      << "base.cleaning_policy = " << CleaningPolicyName(c.cleaning_policy) << "\n"
      << "base.separate_cleaning_segment = " << (c.separate_cleaning_segment ? 1 : 0)
      << "\n"
      << "base.flash_async_erasure = " << (c.flash_async_erasure ? 1 : 0) << "\n"
      << "base.warm_fraction = " << CanonNumber(c.warm_fraction) << "\n"
      << "base.write_back_cache = " << (c.write_back_cache ? 1 : 0) << "\n"
      << "base.cache_sync_interval_us = " << c.cache_sync_interval_us << "\n";
  // The optional groups' blocks, so specs that use neither keep their
  // fingerprints; fault comes before FTL here.
  const ColumnGroups columns = ColumnGroupsOf(spec);
  if (columns.Has(ColumnGroup::kFault)) {
    AppendList(out, "power_loss_intervals", spec.power_loss_intervals, CanonNumber);
    out << "base.fault.seed = " << c.fault.seed << "\n"
        << "base.fault.power_loss_interval_us = " << c.fault.power_loss_interval_us
        << "\n"
        << "base.fault.transient_error_rate = " << CanonNumber(c.fault.transient_error_rate)
        << "\n"
        << "base.fault.bad_block_rate = " << CanonNumber(c.fault.bad_block_rate) << "\n"
        << "base.fault.wear_out = " << (c.fault.wear_out ? 1 : 0) << "\n"
        << "base.fault.endurance_scale = " << CanonNumber(c.fault.endurance_scale) << "\n"
        << "base.fault.endurance_spread = " << CanonNumber(c.fault.endurance_spread)
        << "\n"
        << "base.fault.max_retries = " << c.fault.max_retries << "\n"
        << "base.fault.retry_backoff_us = " << c.fault.retry_backoff_us << "\n";
  }
  if (columns.Has(ColumnGroup::kFtl)) {
    AppendList(out, "backends", spec.backends, same);
    AppendList(out, "ftl", spec.ftl_policies, [](const FtlSelection& f) {
      return f.cleaner ? CleaningPolicyName(*f.cleaner) : FtlPolicyKindName(f.kind);
    });
    out << "base.ftl_policy = " << FtlPolicyKindName(c.ftl_policy) << "\n"
        << "base.export_ftl_metrics = " << (c.export_columns.Has(ColumnGroup::kFtl) ? 1 : 0)
        << "\n";
  }
  return out.str();
}

std::string SpecFingerprint(const ExperimentSpec& spec) {
  return HexU64(Fnv1a64(CanonicalSpecText(spec)));
}

}  // namespace mobisim
