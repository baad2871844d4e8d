#include "src/core/config_text.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "src/util/parse.h"

namespace mobisim {

namespace {

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

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// Strict finite parse: rejects nan/inf and out-of-range values like 1e999
// instead of letting them poison a config (NaN passes naive range checks —
// `nan < 0.0` and `nan >= 1.0` are both false).
std::optional<double> ParseDouble(const std::string& text) {
  return ParseFiniteDouble(text);
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

}  // namespace

std::optional<std::uint64_t> ParseSize(const std::string& raw) {
  const std::string text = Lower(Trim(raw));
  if (text.empty()) {
    return std::nullopt;
  }
  std::uint64_t multiplier = 1;
  std::string digits = text;
  const char suffix = text.back();
  if (suffix == 'k' || suffix == 'm' || suffix == 'g') {
    multiplier = suffix == 'k' ? 1024ull : suffix == 'm' ? 1024ull * 1024 : 1024ull * 1024 * 1024;
    digits = text.substr(0, text.size() - 1);
  }
  const auto value = ParseDouble(digits);
  if (!value || *value < 0) {
    return std::nullopt;
  }
  // Guard the cast: double -> uint64 is undefined behaviour once the scaled
  // value reaches 2^64, so sizes like 99999999999g are an error, not UB.
  const double scaled = *value * static_cast<double>(multiplier);
  if (scaled >= 18446744073709549568.0) {  // largest double below 2^64
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(scaled);
}

std::optional<bool> ParseBool(const std::string& raw) {
  const std::string text = Lower(Trim(raw));
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

std::optional<DeviceSpec> DeviceByName(const std::string& name) {
  // Same lowering rule as every other name table (NormalizeName): catalog
  // names are canonical '-', lookups tolerate '_' , case, and stray spaces,
  // so intel_datasheet and intel-datasheet resolve identically everywhere.
  const std::string wanted = NormalizeName(name);
  for (const DeviceSpec& spec : AllDeviceSpecs()) {
    if (NormalizeName(spec.name) == wanted) {
      return spec;
    }
  }
  return std::nullopt;
}

std::optional<CleaningPolicy> CleaningPolicyByName(const std::string& name) {
  // One name table for the whole tree: delegate to the flash layer's strict
  // parser (tolerates '_' and case, rejects everything else).
  return CleaningPolicyFromName(name);
}

std::optional<FtlSelection> FtlSelectionByName(const std::string& name) {
  // Cleaner names select the log-structured FTL with that cleaner, so
  // `ftl=greedy,...,page-diff` sweeps cleaners and FTLs in one dimension.
  if (const auto cleaner = CleaningPolicyFromName(name)) {
    return FtlSelection{FtlPolicyKind::kLogStructured, cleaner};
  }
  if (const auto kind = FtlPolicyKindFromName(name)) {
    return FtlSelection{*kind, std::nullopt};
  }
  return std::nullopt;
}

bool ApplyConfigAssignment(SimConfig* config, const std::string& raw_key,
                           const std::string& raw_value, std::string* error) {
  const std::string key = Lower(Trim(raw_key));
  const std::string value = Trim(raw_value);

  if (key == "device") {
    const auto spec = DeviceByName(value);
    if (!spec) {
      SetError(error, "unknown device '" + value + "'");
      return false;
    }
    config->device = *spec;
    return true;
  }
  if (key == "dram" || key == "sram" || key == "capacity") {
    const auto size = ParseSize(value);
    if (!size) {
      SetError(error, "bad size '" + value + "' for " + key);
      return false;
    }
    if (key == "dram") {
      config->dram_bytes = *size;
    } else if (key == "sram") {
      config->sram_bytes = *size;
    } else {
      config->capacity_bytes = *size;
      config->auto_capacity = false;
    }
    return true;
  }
  if (key == "utilization" || key == "warm_fraction") {
    const auto v = ParseDouble(value);
    if (!v || *v < 0.0 || *v >= 1.0) {
      SetError(error, "bad fraction '" + value + "' for " + key);
      return false;
    }
    (key == "utilization" ? config->flash_utilization : config->warm_fraction) = *v;
    return true;
  }
  if (key == "spin_down" || key == "sync_interval") {
    const auto v = ParseDouble(value);
    if (!v || *v < 0.0) {
      SetError(error, "bad seconds '" + value + "' for " + key);
      return false;
    }
    (key == "spin_down" ? config->spin_down_after_us : config->cache_sync_interval_us) =
        UsFromSec(*v);
    return true;
  }
  if (key == "spin_down_policy") {
    if (Lower(value) == "fixed") {
      config->spin_down_policy = SpinDownPolicy::kFixedThreshold;
    } else if (Lower(value) == "adaptive") {
      config->spin_down_policy = SpinDownPolicy::kAdaptive;
    } else {
      SetError(error, "spin_down_policy must be fixed|adaptive");
      return false;
    }
    return true;
  }
  if (key == "cleaning") {
    if (Lower(value) == "background") {
      config->background_cleaning = true;
    } else if (Lower(value) == "on-demand") {
      config->background_cleaning = false;
    } else {
      SetError(error, "cleaning must be background|on-demand");
      return false;
    }
    return true;
  }
  if (key == "cleaning_policy") {
    const auto policy = CleaningPolicyByName(value);
    if (!policy) {
      SetError(error, "cleaning_policy must be greedy|cost-benefit|wear-aware");
      return false;
    }
    config->cleaning_policy = *policy;
    return true;
  }
  if (key == "ftl") {
    const auto selection = FtlSelectionByName(value);
    if (!selection) {
      SetError(error,
               "ftl must be log|page-diff|fat-remap or a cleaner name "
               "(greedy|cost-benefit|wear-aware)");
      return false;
    }
    config->ftl_policy = selection->kind;
    if (selection->cleaner) {
      config->cleaning_policy = *selection->cleaner;
    }
    return true;
  }
  if (key == "export_ftl") {
    const auto v = ParseBool(value);
    if (!v) {
      SetError(error, "bad boolean '" + value + "' for " + key);
      return false;
    }
    config->export_columns = config->export_columns.With(ColumnGroup::kFtl, *v);
    return true;
  }
  if (key.rfind("nand.", 0) == 0) {
    // NAND topology/timing overrides.  They refine an already-selected
    // kNandSsd device, so `device = nand-...` must come first; anything else
    // would silently edit fields no other device kind reads.
    if (config->device.kind != DeviceKind::kNandSsd) {
      SetError(error, "'" + key + "' requires a nand-ssd device (set device = " +
                          "nand-chip|nand-ssd-4ch|nand-ssd-8ch first)");
      return false;
    }
    NandTopology& nand = config->device.nand;
    if (key == "nand.channels" || key == "nand.dies" || key == "nand.planes" ||
        key == "nand.pages_per_block") {
      const auto v = ParseDouble(value);
      if (!v || *v < 1.0 || *v != static_cast<double>(static_cast<std::uint32_t>(*v))) {
        SetError(error, "bad count '" + value + "' for " + key);
        return false;
      }
      const std::uint32_t count = static_cast<std::uint32_t>(*v);
      if (key == "nand.channels") {
        nand.channels = count;
      } else if (key == "nand.dies") {
        nand.dies_per_channel = count;
      } else if (key == "nand.planes") {
        nand.planes_per_die = count;
      } else {
        nand.pages_per_block = count;
      }
    } else if (key == "nand.page_bytes") {
      const auto size = ParseSize(value);
      if (!size || *size == 0 || *size > (1u << 20)) {
        SetError(error, "bad size '" + value + "' for " + key);
        return false;
      }
      nand.page_bytes = static_cast<std::uint32_t>(*size);
    } else if (key == "nand.read_us" || key == "nand.page_us" ||
               key == "nand.program_us" || key == "nand.erase_ms" ||
               key == "nand.channel_mbps") {
      const auto v = ParseDouble(value);
      if (!v || *v <= 0.0) {
        SetError(error, "bad value '" + value + "' for " + key);
        return false;
      }
      if (key == "nand.read_us" || key == "nand.page_us") {
        nand.read_page_us = *v;
      } else if (key == "nand.program_us") {
        nand.program_page_us = *v;
      } else if (key == "nand.erase_ms") {
        nand.erase_block_ms = *v;
      } else {
        nand.channel_mbps = *v;
      }
    } else {
      SetError(error, "unknown key '" + key + "'");
      return false;
    }
    // The GC erase unit tracks the NAND erase block; ValidateDeviceSpec
    // rejects a divergence, so keep them in lockstep here.
    config->device.erase_segment_bytes = nand.block_bytes();
    config->device.erase_ms_per_segment = nand.erase_block_ms;
    return true;
  }
  if (key == "fault.seed") {
    const auto v = ParseDouble(value);
    if (!v || *v < 0.0) {
      SetError(error, "bad seed '" + value + "' for " + key);
      return false;
    }
    config->fault.seed = static_cast<std::uint64_t>(*v);
    return true;
  }
  if (key == "fault.power_loss_interval" || key == "fault.retry_backoff") {
    const auto v = ParseDouble(value);
    if (!v || *v < 0.0) {
      SetError(error, "bad seconds '" + value + "' for " + key);
      return false;
    }
    (key == "fault.power_loss_interval" ? config->fault.power_loss_interval_us
                                        : config->fault.retry_backoff_us) = UsFromSec(*v);
    return true;
  }
  if (key == "fault.transient_error_rate" || key == "fault.bad_block_rate" ||
      key == "fault.endurance_spread") {
    const auto v = ParseDouble(value);
    if (!v || *v < 0.0 || *v >= 1.0) {
      SetError(error, "bad fraction '" + value + "' for " + key);
      return false;
    }
    if (key == "fault.transient_error_rate") {
      config->fault.transient_error_rate = *v;
    } else if (key == "fault.bad_block_rate") {
      config->fault.bad_block_rate = *v;
    } else {
      config->fault.endurance_spread = *v;
    }
    return true;
  }
  if (key == "fault.endurance_scale") {
    const auto v = ParseDouble(value);
    if (!v || *v <= 0.0) {
      SetError(error, "bad scale '" + value + "' for " + key);
      return false;
    }
    config->fault.endurance_scale = *v;
    return true;
  }
  if (key == "fault.max_retries") {
    const auto v = ParseDouble(value);
    if (!v || *v < 0.0 || *v != static_cast<double>(static_cast<std::uint32_t>(*v))) {
      SetError(error, "bad count '" + value + "' for " + key);
      return false;
    }
    config->fault.max_retries = static_cast<std::uint32_t>(*v);
    return true;
  }
  if (key == "fault.wear_out") {
    const auto v = ParseBool(value);
    if (!v) {
      SetError(error, "bad boolean '" + value + "' for " + key);
      return false;
    }
    config->fault.wear_out = *v;
    return true;
  }
  const struct {
    const char* name;
    bool SimConfig::*field;
  } bool_keys[] = {
      {"separate_cleaning", &SimConfig::separate_cleaning_segment},
      {"interleave_prefill", &SimConfig::interleave_prefill},
      {"async_erasure", &SimConfig::flash_async_erasure},
      {"write_back", &SimConfig::write_back_cache},
      {"geometry", &SimConfig::use_disk_geometry},
  };
  for (const auto& entry : bool_keys) {
    if (key == entry.name) {
      const auto v = ParseBool(value);
      if (!v) {
        SetError(error, "bad boolean '" + value + "' for " + key);
        return false;
      }
      config->*(entry.field) = *v;
      return true;
    }
  }
  SetError(error, "unknown key '" + key + "'");
  return false;
}

std::optional<SimConfig> ParseConfigText(const std::string& text, std::string* error) {
  SimConfig config;
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
    if (!ApplyConfigAssignment(&config, line.substr(0, eq), line.substr(eq + 1),
                               &assign_error)) {
      SetError(error, "line " + std::to_string(line_no) + ": " + assign_error);
      return std::nullopt;
    }
  }
  return config;
}

std::vector<std::string> ApplyConfigArgs(SimConfig* config,
                                         const std::vector<std::string>& args,
                                         std::string* error) {
  std::vector<std::string> leftover;
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      leftover.push_back(arg);
      continue;
    }
    std::string assign_error;
    if (!ApplyConfigAssignment(config, arg.substr(0, eq), arg.substr(eq + 1),
                               &assign_error)) {
      // Unknown keys fall through to the caller; real value errors abort.
      if (assign_error.rfind("unknown key", 0) == 0) {
        leftover.push_back(arg);
      } else {
        SetError(error, assign_error);
        return leftover;
      }
    }
  }
  return leftover;
}

std::string DescribeConfig(const SimConfig& config) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s dram=%lluK sram=%lluK util=%.0f%% spin_down=%.1fs policy=%s%s%s",
                config.device.name.c_str(),
                static_cast<unsigned long long>(config.dram_bytes / 1024),
                static_cast<unsigned long long>(config.sram_bytes / 1024),
                config.flash_utilization * 100.0, SecFromUs(config.spin_down_after_us),
                CleaningPolicyName(config.cleaning_policy),
                config.write_back_cache ? " write-back" : "",
                config.use_disk_geometry ? " geometry" : "");
  std::string out(buf);
  if (config.ftl_policy != FtlPolicyKind::kLogStructured) {
    out += " ftl=";
    out += FtlPolicyKindName(config.ftl_policy);
  }
  return out;
}

}  // namespace mobisim
