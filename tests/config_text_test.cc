// Tests for the text configuration parser.
#include <gtest/gtest.h>

#include "src/core/config_text.h"
#include "src/core/simulator.h"

namespace mobisim {
namespace {

TEST(ParseSizeTest, SuffixesAndPlainBytes) {
  EXPECT_EQ(ParseSize("1024"), 1024u);
  EXPECT_EQ(ParseSize("32k"), 32u * 1024);
  EXPECT_EQ(ParseSize("2m"), 2u * 1024 * 1024);
  EXPECT_EQ(ParseSize("1g"), 1ull * 1024 * 1024 * 1024);
  EXPECT_EQ(ParseSize("1.5m"), static_cast<std::uint64_t>(1.5 * 1024 * 1024));
  EXPECT_EQ(ParseSize(" 64K "), 64u * 1024);
  EXPECT_FALSE(ParseSize("abc").has_value());
  EXPECT_FALSE(ParseSize("").has_value());
  EXPECT_FALSE(ParseSize("-5k").has_value());
}

TEST(ParseSizeTest, RejectsNonFiniteAndOverflowingValues) {
  // NaN/inf would sail through naive `v < 0` checks; 1e999 overflows the
  // double parse; huge suffixed sizes would hit undefined behaviour in the
  // double -> uint64 cast.  All must be plain parse errors.
  EXPECT_FALSE(ParseSize("nan").has_value());
  EXPECT_FALSE(ParseSize("inf").has_value());
  EXPECT_FALSE(ParseSize("1e999").has_value());
  EXPECT_FALSE(ParseSize("99999999999g").has_value());
  EXPECT_FALSE(ParseSize("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(ParseSize("1 2k").has_value());
  EXPECT_EQ(ParseSize("1e3"), 1000u);  // scientific notation itself is fine
}

TEST(ParseBoolTest, Variants) {
  EXPECT_EQ(ParseBool("true"), true);
  EXPECT_EQ(ParseBool("ON"), true);
  EXPECT_EQ(ParseBool("0"), false);
  EXPECT_EQ(ParseBool("no"), false);
  EXPECT_FALSE(ParseBool("maybe").has_value());
}

TEST(DeviceByNameTest, FindsCatalogEntries) {
  EXPECT_TRUE(DeviceByName("cu140-datasheet").has_value());
  EXPECT_TRUE(DeviceByName("intel-series2plus-datasheet").has_value());
  EXPECT_FALSE(DeviceByName("floppy").has_value());
}

TEST(ApplyAssignmentTest, SetsFields) {
  SimConfig config;
  std::string error;
  EXPECT_TRUE(ApplyConfigAssignment(&config, "device", "sdp5a-datasheet", &error));
  EXPECT_EQ(config.device.name, "sdp5a-datasheet");
  EXPECT_TRUE(ApplyConfigAssignment(&config, "dram", "4m", &error));
  EXPECT_EQ(config.dram_bytes, 4u * 1024 * 1024);
  EXPECT_TRUE(ApplyConfigAssignment(&config, "utilization", "0.9", &error));
  EXPECT_DOUBLE_EQ(config.flash_utilization, 0.9);
  EXPECT_TRUE(ApplyConfigAssignment(&config, "spin_down", "2.5", &error));
  EXPECT_EQ(config.spin_down_after_us, UsFromSec(2.5));
  EXPECT_TRUE(ApplyConfigAssignment(&config, "cleaning_policy", "wear-aware", &error));
  EXPECT_EQ(config.cleaning_policy, CleaningPolicy::kWearAware);
  EXPECT_TRUE(ApplyConfigAssignment(&config, "write_back", "true", &error));
  EXPECT_TRUE(config.write_back_cache);
  EXPECT_TRUE(ApplyConfigAssignment(&config, "spin_down_policy", "adaptive", &error));
  EXPECT_EQ(config.spin_down_policy, SpinDownPolicy::kAdaptive);
}

TEST(ApplyAssignmentTest, RejectsBadValues) {
  SimConfig config;
  std::string error;
  EXPECT_FALSE(ApplyConfigAssignment(&config, "device", "nope", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ApplyConfigAssignment(&config, "utilization", "1.5", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "dram", "lots", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "wibble", "1", &error));
}

TEST(ParseConfigTextTest, FullFile) {
  const std::string text = R"(
# experiment: high-utilization flash card
device = intel-datasheet
dram = 2m
utilization = 0.95
cleaning_policy = cost-benefit
separate_cleaning = true
)";
  std::string error;
  const auto config = ParseConfigText(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->device.name, "intel-datasheet");
  EXPECT_DOUBLE_EQ(config->flash_utilization, 0.95);
  EXPECT_EQ(config->cleaning_policy, CleaningPolicy::kCostBenefit);
  EXPECT_TRUE(config->separate_cleaning_segment);
}

TEST(ApplyAssignmentTest, RejectsNonFiniteNumbers) {
  // NaN fails both `v < 0.0` and `v >= 1.0`, so a naive range check would
  // accept it and poison every downstream comparison; 1e999 is out of
  // double range.  Both must be value errors that name the key.
  SimConfig config;
  std::string error;
  EXPECT_FALSE(ApplyConfigAssignment(&config, "utilization", "nan", &error));
  EXPECT_NE(error.find("utilization"), std::string::npos);
  EXPECT_FALSE(ApplyConfigAssignment(&config, "warm_fraction", "nan", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "spin_down", "inf", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "spin_down", "1e999", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "dram", "1e999", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "fault.transient_error_rate", "nan", &error));
  EXPECT_FALSE(ApplyConfigAssignment(&config, "fault.endurance_scale", "nan", &error));
}

TEST(ParseConfigTextTest, ReportsLineNumbers) {
  std::string error;
  EXPECT_FALSE(ParseConfigText("device = intel-datasheet\nbogus line\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ParseConfigTextTest, ReportsLineAndKeyForMalformedNumbers) {
  std::string error;
  EXPECT_FALSE(ParseConfigText("device = intel-datasheet\ndram = 1e999\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("dram"), std::string::npos) << error;
  EXPECT_FALSE(ParseConfigText("utilization = nan\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(ApplyConfigArgsTest, SeparatesUnknownTokens) {
  SimConfig config;
  std::string error;
  const auto leftover =
      ApplyConfigArgs(&config, {"dram=1m", "--verbose", "utilization=0.5"}, &error);
  EXPECT_TRUE(error.empty());
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "--verbose");
  EXPECT_EQ(config.dram_bytes, 1024u * 1024);
}

TEST(ParseConfigTextTest, ParsedConfigDrivesASimulation) {
  const std::string text =
      "device = sdp5a-datasheet\n"
      "dram = 1m\n"
      "utilization = 0.7\n"
      "async_erasure = true\n";
  std::string error;
  const auto config = ParseConfigText(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const SimResult result = RunNamedWorkload("synth", *config, 0.05);
  EXPECT_GT(result.total_energy_j(), 0.0);
  EXPECT_GT(result.write_response_ms.count(), 0u);
}

TEST(DescribeConfigTest, MentionsKeyFields) {
  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024);
  const std::string text = DescribeConfig(config);
  EXPECT_NE(text.find("sdp5-datasheet"), std::string::npos);
  EXPECT_NE(text.find("2048K"), std::string::npos);
}

// Each kind is labelled with only the settings it reads (HasSpindle,
// HasCleaner): a spindle's spin-down and geometry on magnetic disks, the
// utilization on every flash kind, the cleaner and FTL on cards and NAND.
TEST(DescribeConfigTest, LabelsOnlyTheSettingsTheDeviceReads) {
  struct Case {
    DeviceSpec device;
    bool spindle;
    bool flash;
    bool cleaner;
  };
  const Case cases[] = {
      {Cu140Datasheet(), true, false, false},
      {Sdp5Datasheet(), false, true, false},
      {IntelCardDatasheet(), false, true, true},
      {NandSsd4ch(), false, true, true},
  };
  for (const Case& c : cases) {
    SimConfig config = MakePaperConfig(c.device, 2 * 1024 * 1024);
    config.flash_utilization = 0.9;
    config.spin_down_after_us = UsFromSec(5);
    config.use_disk_geometry = true;
    config.ftl_policy = FtlPolicyKind::kPageDiff;
    const std::string text = DescribeConfig(config);
    SCOPED_TRACE(text);
    EXPECT_EQ(text.rfind(c.device.name + " dram=2048K sram=", 0), 0u);
    EXPECT_EQ(text.find("util=90%") != std::string::npos, c.flash);
    EXPECT_EQ(text.find("spin_down=5.0s") != std::string::npos, c.spindle);
    EXPECT_EQ(text.find(" geometry") != std::string::npos, c.spindle);
    EXPECT_EQ(text.find("policy=") != std::string::npos, c.cleaner);
    EXPECT_EQ(text.find("ftl=page-diff") != std::string::npos, c.cleaner);
  }
}

}  // namespace
}  // namespace mobisim
