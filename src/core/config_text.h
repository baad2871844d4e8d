// Text configuration for simulations: `key = value` lines (or CLI
// `key=value` tokens) mapped onto SimConfig.  Used by the mobisim_cli
// example so whole experiments can be described in a file.
//
// Recognised keys (sizes accept k/m/g suffixes; booleans accept
// true/false/1/0; times are seconds as decimals):
//   device               catalog name, e.g. intel-datasheet
//   dram, sram           cache sizes
//   capacity             device capacity
//   utilization          flash live fraction (0..1)
//   spin_down            disk spin-down threshold, seconds
//   spin_down_policy     fixed | adaptive
//   cleaning             background | on-demand
//   cleaning_policy      greedy | cost-benefit | wear-aware
//   ftl                  log | page-diff | fat-remap | a cleaner name
//   export_ftl           bool (emit ftl columns even for the default policy)
//   separate_cleaning    bool
//   interleave_prefill   bool
//   async_erasure        bool
//   write_back           bool
//   sync_interval        write-back sync period, seconds
//   warm_fraction        leading fraction used to warm caches
//   geometry             bool (time disks over their catalog geometry)
//   fault.seed                  fault-injection RNG seed
//   fault.power_loss_interval   mean seconds between power losses (0 = off)
//   fault.transient_error_rate  per-I/O transient failure probability (0..1)
//   fault.bad_block_rate        factory bad-segment probability (0..1)
//   fault.wear_out              bool (per-segment endurance budgets)
//   fault.endurance_scale       wear budget mean as multiple of datasheet
//   fault.endurance_spread      wear budget stddev as fraction of the mean
//   fault.max_retries           I/O retry bound
//   fault.retry_backoff         base retry backoff, seconds
#ifndef MOBISIM_SRC_CORE_CONFIG_TEXT_H_
#define MOBISIM_SRC_CORE_CONFIG_TEXT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/sim_config.h"

namespace mobisim {

// Applies one `key=value` assignment.  Returns false (with a message in
// `error`) on unknown keys or malformed values.
bool ApplyConfigAssignment(SimConfig* config, const std::string& key,
                           const std::string& value, std::string* error);

// Parses `text` ('#' comments, blank lines, `key = value` lines).
std::optional<SimConfig> ParseConfigText(const std::string& text, std::string* error);

// Convenience for CLI argv tokens of the form key=value; unrecognised tokens
// are returned untouched for the caller to interpret.
std::vector<std::string> ApplyConfigArgs(SimConfig* config,
                                         const std::vector<std::string>& args,
                                         std::string* error);

// Parses "64k" / "2m" / "1g" / plain bytes.  Returns nullopt on garbage.
std::optional<std::uint64_t> ParseSize(const std::string& text);
std::optional<bool> ParseBool(const std::string& text);
// Device catalog lookup by spec name ("cu140-datasheet", ...).
std::optional<DeviceSpec> DeviceByName(const std::string& name);
// Cleaning policy by name ("greedy", "cost-benefit", "wear-aware"); the
// inverse of CleaningPolicyName.
std::optional<CleaningPolicy> CleaningPolicyByName(const std::string& name);

// One FTL grid-dimension value.  Cleaner names mean "the log-structured FTL
// with that cleaner"; FTL names ("log", "page-diff", "fat-remap") select the
// translation layer and leave the cleaner alone.
struct FtlSelection {
  FtlPolicyKind kind = FtlPolicyKind::kLogStructured;
  std::optional<CleaningPolicy> cleaner;
};
std::optional<FtlSelection> FtlSelectionByName(const std::string& name);

// One-line summary of a config, for logging.
std::string DescribeConfig(const SimConfig& config);

}  // namespace mobisim

#endif  // MOBISIM_SRC_CORE_CONFIG_TEXT_H_
