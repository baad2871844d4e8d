// Tests for the per-commit result store (src/bench_db) and the regression
// diff harness: metadata round-trips, manifest integrity under tampering,
// spec fingerprint stability, and pass/noise/regression classification.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench_db/bench_db.h"
#include "src/bench_db/benchdiff.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "tests/collect_sweep.h"

namespace mobisim {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mobisim_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

RunMeta MakeMeta(const std::string& sha) {
  RunMeta meta;
  meta.spec_name = "refspec";
  meta.spec_hash = "00000000deadbeef";
  meta.git_sha = sha;
  meta.created = "2026-08-06T00:00:00Z";
  meta.host = "testhost";
  return meta;
}

// A synthetic sweep row: the config columns benchdiff groups replicas by,
// plus two metrics.  `energy` and `write_ms` are the knobs tests turn.
ResultRow MakeRow(std::size_t point, double utilization, std::uint64_t seed,
                  std::size_t replica, double energy, double write_ms) {
  ResultRow row;
  row.AddInt("point", point);
  row.AddText("workload", "synth");
  row.AddText("device", "intel-datasheet");
  row.AddInt("seed", seed);
  row.AddInt("replica", replica);
  row.AddNumber("scale", 0.1);
  row.AddNumber("utilization", utilization);
  row.AddInt("dram_bytes", 2 * 1024 * 1024);
  row.AddInt("sram_bytes", 0);
  row.AddInt("capacity_bytes", 40 * 1024 * 1024);
  row.AddInt("auto_capacity", 1);
  row.AddText("cleaning_policy", "greedy");
  row.AddNumber("total_energy_j", energy);
  row.AddNumber("write_ms_mean", write_ms);
  return row;
}

// Two utilization cells x three replicas each, ~1% seed spread.
std::vector<ResultRow> MakeReplicatedRows() {
  std::vector<ResultRow> rows;
  std::size_t point = 0;
  for (const double utilization : {0.4, 0.9}) {
    const double base_energy = utilization * 100.0;
    for (std::size_t replica = 0; replica < 3; ++replica) {
      const double wobble = 1.0 + 0.005 * static_cast<double>(replica);
      rows.push_back(MakeRow(point, utilization, 1000 + replica, replica,
                             base_energy * wobble, 10.0 * wobble));
      ++point;
    }
  }
  return rows;
}

void ScaleField(ResultRow* row, const std::string& key, double factor) {
  for (ResultField& field : row->fields) {
    if (field.key == key) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.17g", row->Number(key) * factor);
      field.value = buf;
      return;
    }
  }
  FAIL() << "no field " << key;
}

StoredRun MakeRun(const std::string& sha, std::vector<ResultRow> rows) {
  StoredRun run;
  run.meta = MakeMeta(sha);
  run.meta.points = rows.size();
  run.has_meta = true;
  run.rows = std::move(rows);
  return run;
}

TEST(ResultIoMetaTest, MetaRowRoundTripsThroughJson) {
  const RunMeta meta = MakeMeta("abc123");
  ResultRow row = MetaToRow(meta);
  EXPECT_TRUE(IsMetaRow(row));

  std::string error;
  const auto parsed = RowFromJson(RowToJson(row), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto back = MetaFromRow(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec_name, meta.spec_name);
  EXPECT_EQ(back->spec_hash, meta.spec_hash);
  EXPECT_EQ(back->git_sha, meta.git_sha);
  EXPECT_EQ(back->created, meta.created);
  EXPECT_EQ(back->host, meta.host);
  EXPECT_EQ(back->points, meta.points);

  // Data rows are not mistaken for metadata.
  EXPECT_FALSE(IsMetaRow(MakeRow(0, 0.4, 1, 0, 1.0, 1.0)));
  EXPECT_FALSE(MetaFromRow(MakeRow(0, 0.4, 1, 0, 1.0, 1.0)).has_value());

  // A point count that is not a non-negative integer is not a header.
  for (const char* bad : {"-1", "1.5", "1e30"}) {
    ResultRow bad_row = row;
    for (ResultField& field : bad_row.fields) {
      if (field.key == "points") {
        field.value = bad;
      }
    }
    EXPECT_FALSE(MetaFromRow(bad_row).has_value()) << bad;
  }
}

TEST(ResultIoMetaTest, ColumnGroupsRoundTripAndAreOmittedWhenEmpty) {
  RunMeta meta = MakeMeta("abc123");
  // No group: no `columns` key, so older headers stay byte-identical.
  EXPECT_EQ(MetaToRow(meta).Find("columns"), nullptr);
  for (const ColumnGroups columns :
       {ColumnGroups().With(ColumnGroup::kFtl), ColumnGroups().With(ColumnGroup::kFault),
        ColumnGroups().With(ColumnGroup::kFtl).With(ColumnGroup::kFault)}) {
    meta.columns = columns;
    std::string error;
    const auto parsed = RowFromJson(RowToJson(MetaToRow(meta)), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const auto back = MetaFromRow(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->columns == columns);
  }
  EXPECT_EQ(MetaToRow(meta).Text("columns"), "ftl,fault");
  // A group name that does not exist is not a header.
  ResultRow bad = MetaToRow(meta);
  for (ResultField& field : bad.fields) {
    if (field.key == "columns") {
      field.value = "ftl,wear";
    }
  }
  EXPECT_FALSE(MetaFromRow(bad).has_value());
}

TEST(BenchDbTest, StoreLoadIndexRoundTrip) {
  const std::string root = FreshDir("store_roundtrip");
  BenchDb db(root);

  const std::vector<ResultRow> rows = MakeReplicatedRows();
  std::string error;
  const auto path = db.StoreRun(MakeMeta("sha1"), rows, &error);
  ASSERT_TRUE(path.has_value()) << error;
  EXPECT_EQ(*path, db.RunPath("sha1", "refspec"));

  const auto loaded = LoadRunFile(*path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->has_meta);
  EXPECT_EQ(loaded->meta.git_sha, "sha1");
  EXPECT_EQ(loaded->meta.points, rows.size());
  ASSERT_EQ(loaded->rows.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(loaded->rows[i].fields.size(), rows[i].fields.size());
    for (std::size_t f = 0; f < rows[i].fields.size(); ++f) {
      EXPECT_EQ(loaded->rows[i].fields[f].key, rows[i].fields[f].key);
      EXPECT_EQ(loaded->rows[i].fields[f].value, rows[i].fields[f].value);
    }
  }

  // A second run lands beside it and the manifest records both, in order.
  ASSERT_TRUE(db.StoreRun(MakeMeta("sha2"), rows, &error).has_value()) << error;
  const std::vector<RunMeta> index = db.ReadIndex(&error);
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index[0].git_sha, "sha1");
  EXPECT_EQ(index[1].git_sha, "sha2");

  const auto latest = db.FindLatest("refspec");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->git_sha, "sha2");
  const auto excluding = db.FindLatest("refspec", "sha2");
  ASSERT_TRUE(excluding.has_value());
  EXPECT_EQ(excluding->git_sha, "sha1");
  EXPECT_FALSE(db.FindLatest("otherspec").has_value());

  EXPECT_TRUE(db.Verify(&error)) << error;
}

TEST(BenchDbTest, StoreRejectsPathEscapes) {
  const std::string root = FreshDir("store_paths");
  BenchDb db(root);
  std::string error;
  RunMeta meta = MakeMeta("ok");
  meta.spec_name = "../escape";
  EXPECT_FALSE(db.StoreRun(meta, {}, &error).has_value());
  meta = MakeMeta("a/b");
  EXPECT_FALSE(db.StoreRun(meta, {}, &error).has_value());
  meta = MakeMeta("ok");
  meta.spec_name = "index";  // would collide with index.jsonl
  EXPECT_FALSE(db.StoreRun(meta, {}, &error).has_value());
}

TEST(BenchDbTest, VerifyDetectsTamperedHeaderAndTruncation) {
  const std::string root = FreshDir("store_tamper");
  BenchDb db(root);
  std::string error;
  ASSERT_TRUE(db.StoreRun(MakeMeta("sha1"), MakeReplicatedRows(), &error).has_value())
      << error;
  ASSERT_TRUE(db.Verify(&error)) << error;

  // Tamper: rewrite the run header with a different spec hash.
  const std::string path = db.RunPath("sha1", "refspec");
  const auto run = LoadRunFile(path, &error);
  ASSERT_TRUE(run.has_value()) << error;
  {
    RunMeta tampered = run->meta;
    tampered.spec_hash = "1111111111111111";
    std::ofstream out(path, std::ios::trunc);
    out << RowToJson(MetaToRow(tampered)) << "\n";
    for (const ResultRow& row : run->rows) {
      out << RowToJson(row) << "\n";
    }
  }
  EXPECT_FALSE(db.Verify(&error));
  EXPECT_NE(error.find("disagrees"), std::string::npos) << error;

  // Tamper: drop the last data row (header restored).
  {
    std::ofstream out(path, std::ios::trunc);
    out << RowToJson(MetaToRow(run->meta)) << "\n";
    for (std::size_t i = 0; i + 1 < run->rows.size(); ++i) {
      out << RowToJson(run->rows[i]) << "\n";
    }
  }
  EXPECT_FALSE(db.Verify(&error));
  EXPECT_NE(error.find("point count"), std::string::npos) << error;

  // Tamper: delete the file entirely.
  std::filesystem::remove(path);
  EXPECT_FALSE(db.Verify(&error));
}

TEST(SpecFingerprintTest, StableUnderLineReorderingAndFormatting) {
  std::string error;
  const auto a = ParseExperimentSpec(
      "devices = intel-datasheet, sdp5-datasheet\n"
      "workloads = mac, dos\n"
      "utilizations = 0.4, 0.9\n"
      "seeds = 1, 2\n"
      "scale = 0.25\n",
      &error);
  ASSERT_TRUE(a.has_value()) << error;
  // Same grid: lines reordered, comments added, list spacing changed, and the
  // same numbers spelled differently.
  const auto b = ParseExperimentSpec(
      "# reference grid\n"
      "scale = 0.250\n"
      "seeds = 1,2\n"
      "workloads =   mac , dos\n"
      "utilizations = 0.40, 0.90\n"
      "devices = intel-datasheet, sdp5-datasheet\n",
      &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(SpecFingerprint(*a), SpecFingerprint(*b));
  EXPECT_EQ(CanonicalSpecText(*a), CanonicalSpecText(*b));
  EXPECT_EQ(SpecFingerprint(*a).size(), 16u);
}

TEST(SpecFingerprintTest, ChangesWithGridAndBaseConfig) {
  std::string error;
  const std::string base_text =
      "devices = intel-datasheet\nworkloads = mac\nutilizations = 0.4, 0.9\n";
  const auto base = ParseExperimentSpec(base_text, &error);
  ASSERT_TRUE(base.has_value()) << error;

  // Grid changes: extra utilization, reordered values (different enumeration),
  // extra replica dimension.
  const auto wider = ParseExperimentSpec(base_text + "seeds = 1, 2\n", &error);
  ASSERT_TRUE(wider.has_value()) << error;
  EXPECT_NE(SpecFingerprint(*base), SpecFingerprint(*wider));

  const auto reordered = ParseExperimentSpec(
      "devices = intel-datasheet\nworkloads = mac\nutilizations = 0.9, 0.4\n",
      &error);
  ASSERT_TRUE(reordered.has_value()) << error;
  EXPECT_NE(SpecFingerprint(*base), SpecFingerprint(*reordered));

  const auto replicated = ParseExperimentSpec(base_text + "replicas = 3\n", &error);
  ASSERT_TRUE(replicated.has_value()) << error;
  EXPECT_NE(SpecFingerprint(*base), SpecFingerprint(*replicated));

  // Base-config change without touching the sweep dimensions.
  const auto write_back = ParseExperimentSpec(base_text + "write_back = true\n", &error);
  ASSERT_TRUE(write_back.has_value()) << error;
  EXPECT_NE(SpecFingerprint(*base), SpecFingerprint(*write_back));
}

TEST(ReplicaExpansionTest, ReplicasMultiplyTheGridWithDerivedSeeds) {
  std::string error;
  const auto spec = ParseExperimentSpec(
      "workloads = synth\nutilizations = 0.4, 0.9\nseeds = 7\nreplicas = 3\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(GridSize(*spec), 6u);

  const std::vector<ExperimentPoint> points = EnumerateGrid(*spec);
  ASSERT_EQ(points.size(), 6u);
  // Replica is the innermost dimension; replica 0 keeps the listed seed.
  EXPECT_EQ(points[0].replica, 0u);
  EXPECT_EQ(points[0].seed, 7u);
  EXPECT_EQ(points[1].replica, 1u);
  EXPECT_EQ(points[1].seed, ReplicaSeed(7, 1));
  EXPECT_EQ(points[2].replica, 2u);
  EXPECT_EQ(points[2].seed, ReplicaSeed(7, 2));
  // Derived seeds are distinct from each other and the base.
  EXPECT_NE(points[1].seed, points[0].seed);
  EXPECT_NE(points[2].seed, points[0].seed);
  EXPECT_NE(points[2].seed, points[1].seed);
  // The second cell repeats the same seed schedule at the other utilization.
  EXPECT_EQ(points[3].seed, points[0].seed);
  EXPECT_DOUBLE_EQ(points[3].config.flash_utilization, 0.9);
  // Replica expansion is visible in exported rows.
  EXPECT_EQ(PointToRow(points[1]).Number("replica", -1), 1.0);
}

TEST(BenchdiffTest, IdenticalRunsPassAndInjectedRegressionIsFlagged) {
  const StoredRun base = MakeRun("sha1", MakeReplicatedRows());
  DiffOptions options;
  options.metrics = {"total_energy_j", "write_ms_mean"};

  // A re-run of the same spec with the same seeds reproduces the matrix
  // exactly (the engine is deterministic) and must gate clean.
  const DiffReport same = DiffRuns(base, MakeRun("sha2", MakeReplicatedRows()), options);
  ASSERT_TRUE(same.comparable);
  EXPECT_TRUE(same.noise_from_replicas);
  EXPECT_FALSE(same.HasRegressions());
  EXPECT_TRUE(same.flagged.empty());
  ASSERT_EQ(same.summaries.size(), 2u);
  EXPECT_EQ(same.summaries[0].pass, 6u);

  // +10% energy on every point: far beyond the ~1% replica spread.
  std::vector<ResultRow> worse = MakeReplicatedRows();
  for (ResultRow& row : worse) {
    ScaleField(&row, "total_energy_j", 1.10);
  }
  const DiffReport regressed = DiffRuns(base, MakeRun("sha3", std::move(worse)), options);
  ASSERT_TRUE(regressed.comparable);
  EXPECT_TRUE(regressed.HasRegressions());
  ASSERT_EQ(regressed.summaries.size(), 2u);
  EXPECT_EQ(regressed.summaries[0].metric, "total_energy_j");
  EXPECT_EQ(regressed.summaries[0].regressions, 6u);
  EXPECT_NEAR(regressed.summaries[0].worst_rel, 0.10, 1e-9);
  // write_ms_mean was untouched.
  EXPECT_EQ(regressed.summaries[1].regressions, 0u);
  for (const MetricDiff& cell : regressed.flagged) {
    EXPECT_EQ(cell.metric, "total_energy_j");
    EXPECT_EQ(cell.cls, DiffClass::kRegression);
    EXPECT_TRUE(cell.from_replicas);
  }

  // Reports render without blowing up and carry the verdict.
  EXPECT_NE(RenderReportText(regressed).find("REGRESSION"), std::string::npos);
  EXPECT_NE(RenderReportMarkdown(regressed).find("Regressions"), std::string::npos);
  EXPECT_NE(RenderReportText(same).find("OK"), std::string::npos);
}

TEST(BenchdiffTest, ImprovementsAreNotRegressions) {
  const StoredRun base = MakeRun("sha1", MakeReplicatedRows());
  std::vector<ResultRow> better = MakeReplicatedRows();
  for (ResultRow& row : better) {
    ScaleField(&row, "total_energy_j", 0.80);
  }
  DiffOptions options;
  options.metrics = {"total_energy_j"};
  const DiffReport report = DiffRuns(base, MakeRun("sha2", std::move(better)), options);
  ASSERT_TRUE(report.comparable);
  EXPECT_FALSE(report.HasRegressions());
  EXPECT_EQ(report.summaries[0].improvements, 6u);
}

TEST(BenchdiffTest, FallbackThresholdWithoutReplicas) {
  // Six distinct cells (no replica groups): band = rel_threshold.
  auto make_singletons = [](double factor) {
    std::vector<ResultRow> rows;
    for (std::size_t i = 0; i < 6; ++i) {
      const double utilization = 0.4 + 0.1 * static_cast<double>(i);
      rows.push_back(MakeRow(i, utilization, 1, 0, 100.0 * factor, 10.0));
    }
    return rows;
  };
  DiffOptions options;
  options.metrics = {"total_energy_j"};
  options.rel_threshold = 0.05;

  const StoredRun base = MakeRun("sha1", make_singletons(1.0));
  const DiffReport drift =
      DiffRuns(base, MakeRun("sha2", make_singletons(1.03)), options);
  ASSERT_TRUE(drift.comparable);
  EXPECT_FALSE(drift.noise_from_replicas);
  EXPECT_FALSE(drift.HasRegressions());
  EXPECT_EQ(drift.summaries[0].noise, 6u);

  const DiffReport beyond =
      DiffRuns(base, MakeRun("sha3", make_singletons(1.08)), options);
  EXPECT_TRUE(beyond.HasRegressions());
  EXPECT_EQ(beyond.summaries[0].regressions, 6u);
}

TEST(BenchdiffTest, RefusesMismatchedSpecsUnlessForced) {
  const StoredRun base = MakeRun("sha1", MakeReplicatedRows());
  StoredRun other = MakeRun("sha2", MakeReplicatedRows());
  other.meta.spec_hash = "ffffffffffffffff";

  DiffOptions options;
  options.metrics = {"total_energy_j"};
  const DiffReport refused = DiffRuns(base, other, options);
  EXPECT_FALSE(refused.comparable);
  EXPECT_NE(refused.incomparable_reason.find("fingerprints"), std::string::npos);
  EXPECT_TRUE(refused.summaries.empty());

  options.require_same_spec = false;
  EXPECT_TRUE(DiffRuns(base, other, options).comparable);

  // Mismatched point sets are also refused.
  StoredRun truncated = MakeRun("sha3", MakeReplicatedRows());
  truncated.rows.pop_back();
  const DiffReport mismatched = DiffRuns(base, truncated, options);
  EXPECT_FALSE(mismatched.comparable);
  EXPECT_NE(mismatched.incomparable_reason.find("point counts"), std::string::npos);
}

TEST(BenchdiffTest, RefusesRowsWithoutAnIntegerPointIndex) {
  const StoredRun base = MakeRun("sha1", MakeReplicatedRows());
  DiffOptions options;
  options.metrics = {"total_energy_j"};
  // Negative, fractional and out-of-range indices cannot join: the run is
  // incomparable, whichever side carries them.
  for (const char* bad : {"-1", "1.5", "1e30"}) {
    StoredRun cand = MakeRun("sha2", MakeReplicatedRows());
    cand.rows[1].fields.front().value = bad;
    ASSERT_EQ(cand.rows[1].fields.front().key, "point");
    const DiffReport report = DiffRuns(base, cand, options);
    EXPECT_FALSE(report.comparable) << bad;
    EXPECT_NE(report.incomparable_reason.find("point index"), std::string::npos)
        << report.incomparable_reason;
    EXPECT_FALSE(DiffRuns(cand, base, options).comparable) << bad;
  }
}

TEST(ResultIoUintTest, AcceptsOnlyNonNegativeIntegers) {
  ResultRow row;
  row.AddInt("plain", 42);
  row.AddNumber("spelled", 1e3);
  row.AddNumber("big", 18446744073709551615.0);  // rounds up to 2^64
  row.fields.push_back({"exact", "18446744073709551615", false});
  row.AddNumber("negative", -1);
  row.AddNumber("fraction", 1.5);
  row.AddNumber("huge", 1e30);
  row.AddText("quoted", "7");
  EXPECT_EQ(row.Uint("plain"), 42u);
  EXPECT_EQ(row.Uint("spelled"), 1000u);
  EXPECT_EQ(row.Uint("exact"), 18446744073709551615u);
  for (const char* key : {"big", "negative", "fraction", "huge", "quoted", "absent"}) {
    EXPECT_FALSE(row.Uint(key).has_value()) << key;
  }
}

TEST(BenchdiffTest, AbsentMetricsAreSkippedNotMisread) {
  const StoredRun base = MakeRun("sha1", MakeReplicatedRows());
  DiffOptions options;
  options.metrics = {"total_energy_j", "no_such_metric"};
  const DiffReport report = DiffRuns(base, MakeRun("sha2", MakeReplicatedRows()), options);
  ASSERT_TRUE(report.comparable);
  ASSERT_EQ(report.summaries.size(), 1u);
  EXPECT_EQ(report.summaries[0].metric, "total_energy_j");
  ASSERT_EQ(report.skipped_metrics.size(), 1u);
  EXPECT_EQ(report.skipped_metrics[0], "no_such_metric");
}

TEST(BenchdiffTest, OptionalGroupColumnsSeparateCells) {
  // Replicas differing only in an optional group's point column are
  // different experiments: no replica band forms across them.
  for (const char* column : {"ftl", "backend", "power_loss_interval_sec"}) {
    SCOPED_TRACE(column);
    for (const bool differ : {false, true}) {
      std::vector<ResultRow> rows = MakeReplicatedRows();
      for (ResultRow& row : rows) {
        row.AddText(column, differ ? std::to_string(*row.Uint("replica")) : "same");
      }
      DiffOptions options;
      options.metrics = {"total_energy_j"};
      const StoredRun base = MakeRun("sha1", rows);
      const DiffReport report = DiffRuns(base, MakeRun("sha2", rows), options);
      ASSERT_TRUE(report.comparable);
      EXPECT_EQ(report.noise_from_replicas, !differ);
    }
  }
}

// The CSV header a shard of `spec` writes.
std::string ShardCsvHeader(const ExperimentSpec& spec, std::size_t shard,
                           std::size_t shards) {
  std::ostringstream out;
  CsvResultSink sink(out, SweepCsvHeader(ColumnGroupsOf(spec)));
  SweepOptions options;
  options.threads = 1;
  options.sinks.push_back(&sink);
  RunSweep(FilterShard(EnumerateGrid(spec), shard, shards), options);
  std::istringstream lines(out.str());
  std::string header;
  EXPECT_TRUE(std::getline(lines, header));
  return header;
}

TEST(CsvSinkTest, EmptyShardWritesItsPopulatedSiblingsHeader) {
  // Two points in four shards: shard 3 gets none, yet writes the header of
  // shard 0, optional groups included.
  ExperimentSpec ftl;
  std::string error;
  ASSERT_TRUE(ApplySpecAssignment(&ftl, "workloads", "synth", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&ftl, "utilizations", "0.5", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&ftl, "scale", "0.02", &error)) << error;
  ExperimentSpec fault = ftl;
  ASSERT_TRUE(ApplySpecAssignment(&ftl, "ftl", "greedy, page-diff", &error)) << error;
  ASSERT_TRUE(ApplySpecAssignment(&fault, "power_loss_intervals", "0, 2.0", &error))
      << error;
  for (const auto& [spec, column] :
       {std::pair{ftl, ",ftl,"}, std::pair{fault, ",power_loss_interval_sec,"}}) {
    SCOPED_TRACE(column);
    const std::string populated = ShardCsvHeader(spec, 0, 4);
    EXPECT_NE(populated.find(column), std::string::npos);
    EXPECT_EQ(ShardCsvHeader(spec, 3, 4), populated);
  }
}

TEST(CsvSinkTest, EmptySweepStillWritesHeader) {
  // Zero points (e.g. a shard filter that matched nothing) must still produce
  // a well-formed CSV: header only, no special-casing downstream.
  std::ostringstream out;
  CsvResultSink sink(out, SweepCsvHeader());
  SweepOptions options;
  options.threads = 1;
  options.sinks.push_back(&sink);
  const auto outcomes = CollectSweep(std::vector<ExperimentPoint>{}, options);
  EXPECT_TRUE(outcomes.empty());
  EXPECT_EQ(out.str(), SweepCsvHeader() + "\n");

  // And the default header matches what a populated sweep emits, so the
  // schema is identical either way.
  std::ostringstream populated;
  CsvResultSink sink2(populated, SweepCsvHeader());
  ExperimentSpec spec;
  spec.workloads = {"synth"};
  spec.scale = 0.02;
  SweepOptions options2;
  options2.threads = 1;
  options2.sinks.push_back(&sink2);
  RunSweep(EnumerateGrid(spec), options2);
  std::istringstream lines(populated.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, SweepCsvHeader());
}

}  // namespace
}  // namespace mobisim
