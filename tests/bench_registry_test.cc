// The bench registry's contract: every converted bench reproduces the text
// output of its historical stand-alone binary byte for byte (goldens in
// tests/golden/, captured from the pre-registry binaries at pinned args),
// rows export deterministically regardless of --jobs, and the sink rules
// (dynamic rows, seed/replica overrides) hold.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/runner/bench_registry.h"
#include "src/runner/result_sink.h"

namespace mobisim {
namespace {

#ifndef MOBISIM_GOLDEN_DIR
#error "MOBISIM_GOLDEN_DIR must name the tests/golden directory"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(MOBISIM_GOLDEN_DIR) + "/" + name + ".txt";
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Captures everything the bench printf()s to stdout.  The benches write with
// C stdio, so the capture redirects the file descriptor, not the C++ stream.
class StdoutCapture {
 public:
  StdoutCapture() : path_(::testing::TempDir() + "bench_stdout.txt") {
    std::fflush(stdout);
    saved_fd_ = dup(fileno(stdout));
    FILE* file = std::fopen(path_.c_str(), "wb");
    dup2(fileno(file), fileno(stdout));
    std::fclose(file);
  }

  std::string Finish() {
    std::fflush(stdout);
    dup2(saved_fd_, fileno(stdout));
    close(saved_fd_);
    return ReadFileOrDie(path_);
  }

 private:
  std::string path_;
  int saved_fd_;
};

// A collector with a fixed schema, like CSV: it declines dynamic rows.
class FixedSchemaVectorSink : public VectorResultSink {
 public:
  bool AcceptsDynamicRows() const override { return false; }
};

std::string Serialize(const std::vector<ResultRow>& rows) {
  std::string out;
  for (const ResultRow& row : rows) {
    out += RowToJson(row);
    out += "\n";
  }
  return out;
}

// The exact arguments each golden was captured with (the legacy binaries'
// command lines, pinned small enough for test time).  scale 0 / param 0
// mean "bench default".
struct GoldenCase {
  const char* name;
  double scale = 0.0;
  std::uint64_t param = 0;
};

const GoldenCase kGoldenCases[] = {
    {"ablation_cleaning", 0.3},
    {"ablation_endurance", 0.0, 80},
    {"ablation_metadata", 0.3},
    {"ablation_seek_model", 0.3},
    {"ablation_segment_size", 0.3},
    {"ablation_spindown", 0.3},
    {"ablation_sram_flash", 0.3},
    {"ablation_writeback", 0.3},
    {"fig1_write_anomaly"},
    {"fig2_utilization", 0.3},
    {"fig3_mffs_degradation"},
    {"fig4_dram_flash", 0.2},
    {"fig5_sram", 0.3},
    {"related_envy", 0.0, 50000},
    {"related_flash_cache", 0.3},
    {"related_hybrid", 0.3},
    {"related_lfs_ffs"},
    {"sec53_async_cleaning", 0.3},
    {"seed_sensitivity", 0.2, 3},
    {"synth_validation", 0.5},
    {"table1_microbench"},
    {"table2_specs"},
    {"table3_traces", 0.3},
    {"table4_devices", 0.2},
};

class GoldenOutputTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenOutputTest, MatchesPreRegistryBinary) {
  const GoldenCase& test_case = GetParam();
  const BenchDef* def = FindBench(test_case.name);
  ASSERT_NE(def, nullptr) << test_case.name << " not registered";

  BenchContext::Options options;
  options.scale = test_case.scale;
  options.param = test_case.param;
  StdoutCapture capture;
  const std::size_t failed = RunBench(*def, options);
  const std::string output = capture.Finish();

  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(output, ReadFileOrDie(GoldenPath(test_case.name)))
      << test_case.name << " no longer reproduces its pre-registry output";
}

INSTANTIATE_TEST_SUITE_P(AllBenches, GoldenOutputTest,
                         ::testing::ValuesIn(kGoldenCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(BenchRegistryTest, EveryHistoricalBenchIsRegistered) {
  // One golden per converted binary, plus uflip, whose shapes are checked
  // inside the bench: exactly these 25 names, nothing else.
  std::vector<std::string> expected;
  for (const GoldenCase& test_case : kGoldenCases) {
    expected.push_back(test_case.name);
  }
  expected.push_back("uflip");
  std::vector<std::string> registered;
  for (const BenchDef* def : AllBenches()) {
    registered.push_back(def->name);
  }
  EXPECT_EQ(registered.size(), 25u);
  EXPECT_EQ(registered, expected);
}

TEST(BenchRegistryTest, NamesAreSortedAndUnique) {
  const std::vector<const BenchDef*> benches = AllBenches();
  for (std::size_t i = 1; i < benches.size(); ++i) {
    EXPECT_LT(benches[i - 1]->name, benches[i]->name);
  }
}

TEST(BenchRegistryTest, UnknownBenchIsNull) {
  EXPECT_EQ(FindBench("no_such_bench"), nullptr);
}

struct SmokeRun {
  std::string rows;  // exported rows, serialized in arrival order
  std::string text;  // the bench's printed output
};

SmokeRun RunSmoke(const BenchDef& def, std::size_t threads, BenchContext::Options options = {}) {
  VectorResultSink sink;
  options.smoke = true;
  options.threads = threads;
  options.sinks = {&sink};
  StdoutCapture capture;
  RunBench(def, options);
  const std::string text = capture.Finish();
  return {Serialize(sink.rows()), text};
}

// Every bench, whether it runs grids, hand-built points or emitted
// measurements: rows and printed output must not depend on how the sweep
// is scheduled.
class JobCountTest : public ::testing::TestWithParam<const BenchDef*> {};

TEST_P(JobCountTest, RowsAndOutputAreIdenticalAtOneAndFourThreads) {
  const BenchDef& def = *GetParam();
  const SmokeRun serial = RunSmoke(def, 1);
  const SmokeRun threaded = RunSmoke(def, 4);
  EXPECT_FALSE(serial.rows.empty());
  EXPECT_EQ(serial.rows, threaded.rows);
  EXPECT_EQ(serial.text, threaded.text);
}

INSTANTIATE_TEST_SUITE_P(AllBenches, JobCountTest, ::testing::ValuesIn(AllBenches()),
                         [](const ::testing::TestParamInfo<const BenchDef*>& info) {
                           return info.param->name;
                         });

TEST(BenchRegistryTest, RowsCarryBenchLabelAndMonotonicPointIndex) {
  const BenchDef* def = FindBench("fig2_utilization");
  ASSERT_NE(def, nullptr);
  VectorResultSink sink;
  BenchContext::Options options;
  options.smoke = true;
  options.sinks = {&sink};
  StdoutCapture capture;
  RunBench(*def, options);
  capture.Finish();

  // fig2 runs one grid per workload; the registry must re-index so `point`
  // stays unique across the whole bench run.
  ASSERT_FALSE(sink.rows().empty());
  for (std::size_t i = 0; i < sink.rows().size(); ++i) {
    const ResultRow& row = sink.rows()[i];
    ASSERT_FALSE(row.fields.empty());
    EXPECT_EQ(row.fields[0].key, "bench");
    EXPECT_EQ(row.fields[0].value, "fig2_utilization");
    EXPECT_EQ(row.Number("point", -1.0), static_cast<double>(i));
  }
}

TEST(BenchRegistryTest, DynamicRowsSkipFixedSchemaSinks) {
  // ablation_endurance only Emit()s hand-measured rows; a CSV-like sink
  // (fixed schema) must see nothing, a JSONL-like sink everything.
  const BenchDef* def = FindBench("ablation_endurance");
  ASSERT_NE(def, nullptr);
  VectorResultSink jsonl_like;
  FixedSchemaVectorSink csv_like;
  BenchContext::Options options;
  options.smoke = true;
  options.sinks = {&jsonl_like, &csv_like};
  StdoutCapture capture;
  RunBench(*def, options);
  capture.Finish();
  EXPECT_FALSE(jsonl_like.rows().empty());
  EXPECT_TRUE(csv_like.rows().empty());
}

TEST(BenchRegistryTest, SeedOverrideReachesEveryGridRow) {
  const BenchDef* def = FindBench("fig5_sram");
  ASSERT_NE(def, nullptr);
  VectorResultSink sink;
  BenchContext::Options options;
  options.smoke = true;
  options.seed = 7;
  options.sinks = {&sink};
  StdoutCapture capture;
  RunBench(*def, options);
  capture.Finish();
  ASSERT_FALSE(sink.rows().empty());
  for (const ResultRow& row : sink.rows()) {
    EXPECT_EQ(row.Number("seed", -1.0), 7.0);
  }
}

TEST(BenchRegistryTest, ReplicasOverrideMultipliesGridRows) {
  const BenchDef* def = FindBench("fig5_sram");
  ASSERT_NE(def, nullptr);
  const std::string one = RunSmoke(*def, 1).rows;
  BenchContext::Options options;
  options.replicas = 2;
  const std::string two = RunSmoke(*def, 1, options).rows;
  const auto count = [](const std::string& text) {
    std::size_t lines = 0;
    for (const char c : text) {
      lines += c == '\n';
    }
    return lines;
  };
  EXPECT_EQ(count(two), 2 * count(one));
}

TEST(BenchRegistryTest, SmokeKnobsShrinkTheRun) {
  // The CI leg runs every bench under --smoke; the registry must resolve the
  // smoke-scale/param defaults so that path stays fast.
  for (const BenchDef* def : AllBenches()) {
    if (def->uses_scale) {
      EXPECT_LE(def->smoke_scale, def->default_scale) << def->name;
      EXPECT_GT(def->smoke_scale, 0.0) << def->name;
    }
    if (def->default_param != 0) {
      EXPECT_LE(def->smoke_param, def->default_param) << def->name;
      EXPECT_GT(def->smoke_param, 0u) << def->name;
    }
  }
}

}  // namespace
}  // namespace mobisim
