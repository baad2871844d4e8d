// Tests for the sweepd subsystem: spool lifecycle and claim semantics,
// shard-spec validation, merge conflict rules, worker resume after an
// injected mid-shard death (byte-identical merged output vs a serial run),
// dispatcher retry/exhaustion of poisoned points, the incremental bench_db
// merge, and the heartbeat + HTTP status plumbing.  The worker, poisoned-
// point and late-upload tests run over both worker transports.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/bench_db/bench_db.h"
#include "src/core/result_io.h"
#include "src/runner/cli_options.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "src/sweepd/dispatcher.h"
#include "src/sweepd/lease.h"
#include "src/sweepd/merge.h"
#include "src/sweepd/spool.h"
#include "src/sweepd/worker.h"
#include "src/util/atomic_file.h"
#include "src/util/heartbeat.h"
#include "src/util/http_client.h"
#include "src/util/http_server.h"
#include "tests/collect_sweep.h"

namespace mobisim {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mobisim_sweepd_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Four fast points (2 utilizations x 2 replicas) on the flash card.
constexpr char kTinySpec[] =
    "devices = intel-datasheet\n"
    "workloads = synth\n"
    "utilizations = 0.5, 0.6\n"
    "seeds = 3\n"
    "replicas = 2\n"
    "scale = 0.05\n";

// A policy-grid cross: 2 devices x 2 backends x 3 ftl policies at one
// utilization (the card reads the ftl axis, the disk the backends axis).
// The backend and ftl axes multiply the shard arithmetic exactly like the
// older dimensions, and the per-point rows carry the policy columns, so a
// sharded/merged run must stay byte-identical to a serial one.
constexpr char kPolicyGridSpec[] =
    "devices = intel-datasheet, cu140-datasheet\n"
    "workloads = synth\n"
    "utilizations = 0.9\n"
    "backends = average-cost, geometry\n"
    "ftl = greedy, page_diff, fat_remap\n"
    "seeds = 3\n"
    "scale = 0.05\n";

// Two points, one deterministically poisoned: capacity = 256k is far below
// what the synth trace writes, so the flash-card point trips an invariant
// and becomes an `_error` row while the magnetic-disk point completes.
constexpr char kPoisonSpec[] =
    "devices = intel-datasheet, cu140-datasheet\n"
    "workloads = synth\n"
    "utilizations = 0.9\n"
    "capacity = 256k\n"
    "seeds = 7\n"
    "scale = 0.05\n";

// The reference output: the same spec run serially through RunSweep.
std::vector<std::string> SerialRowsJson(const std::string& spec_text) {
  std::string error;
  const auto spec = ParseExperimentSpec(spec_text, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  SweepOptions options;
  options.threads = 1;
  std::vector<std::string> rows;
  for (const SweepOutcome& outcome : CollectSweep(EnumerateGrid(*spec), options)) {
    rows.push_back(RowToJson(outcome.row));
  }
  return rows;
}

std::vector<std::string> MergedRowsJson(const std::string& dir) {
  std::string error;
  const auto merged = MergeShardDir(dir, &error);
  EXPECT_TRUE(merged.has_value()) << error;
  std::vector<std::string> rows;
  for (const ResultRow& row : merged->rows) {
    rows.push_back(RowToJson(row));
  }
  return rows;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- ParseShardSpec ------------------------------------------------------

TEST(ShardSpecTest, AcceptsValidDesignators) {
  std::size_t shard = 99;
  std::size_t shards = 0;
  std::string error;
  EXPECT_TRUE(ParseShardSpec("0/4", &shard, &shards, &error));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(shards, 4u);
  EXPECT_TRUE(ParseShardSpec("3/4", &shard, &shards, &error));
  EXPECT_EQ(shard, 3u);
}

TEST(ShardSpecTest, RejectsMalformedDesignators) {
  std::size_t shard = 0;
  std::size_t shards = 0;
  std::string error;
  // K >= N: the off-by-one a human actually types.
  EXPECT_FALSE(ParseShardSpec("4/4", &shard, &shards, &error));
  EXPECT_NE(error.find("must be <"), std::string::npos) << error;
  // Zero shard count.
  EXPECT_FALSE(ParseShardSpec("0/0", &shard, &shards, &error));
  EXPECT_NE(error.find("zero"), std::string::npos) << error;
  // Non-numeric, negative, missing slash, empty.
  EXPECT_FALSE(ParseShardSpec("x/3", &shard, &shards, &error));
  EXPECT_FALSE(ParseShardSpec("-1/3", &shard, &shards, &error));
  EXPECT_FALSE(ParseShardSpec("3", &shard, &shards, &error));
  EXPECT_FALSE(ParseShardSpec("", &shard, &shards, &error));
  EXPECT_FALSE(ParseShardSpec("1/2/3", &shard, &shards, &error));
}

// --- WorkItem serialization ----------------------------------------------

TEST(WorkItemTest, JsonRoundTrip) {
  WorkItem item;
  item.id = "shard-0007.r2";
  item.shard = 7;
  item.shards = 16;
  item.points = {3, 19, 35};
  item.attempt = 2;
  std::string error;
  const auto back = WorkItemFromJson(WorkItemToJson(item), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->id, item.id);
  EXPECT_EQ(back->shard, item.shard);
  EXPECT_EQ(back->shards, item.shards);
  EXPECT_EQ(back->points, item.points);
  EXPECT_EQ(back->attempt, item.attempt);
}

TEST(WorkItemTest, RejectsCountsThatAreNotNonNegativeIntegers) {
  std::string error;
  for (const char* field : {"shard", "shards", "attempt"}) {
    for (const char* bad : {"-1", "1.5", "1e30"}) {
      const std::string json = std::string("{\"id\":\"shard-0000\",\"") +
                               field + "\":" + bad + "}";
      EXPECT_FALSE(WorkItemFromJson(json, &error).has_value()) << json;
      EXPECT_NE(error.find(std::string("'") + field + "'"), std::string::npos)
          << error;
    }
  }
  // Absent fields keep their defaults.
  const auto item = WorkItemFromJson("{\"id\":\"shard-0000\"}", &error);
  ASSERT_TRUE(item.has_value()) << error;
  EXPECT_EQ(item->shards, 1u);
  EXPECT_EQ(item->attempt, 0u);
}

// --- Spool lifecycle -----------------------------------------------------

TEST(SpoolTest, ReadMetaRejectsCountsThatAreNotNonNegativeIntegers) {
  const std::string root = FreshDir("badmeta");
  std::filesystem::remove_all(root);
  std::string error;
  const auto spool = Spool::Create(root, kTinySpec, "tiny", 2, &error);
  ASSERT_TRUE(spool.has_value()) << error;
  std::string good;
  ASSERT_TRUE(ReadFileToString(spool->MetaPath(), &good, &error)) << error;
  for (const char* field : {"shards", "points"}) {
    const std::string key = std::string("\"") + field + "\":";
    const std::size_t at = good.find(key);
    ASSERT_NE(at, std::string::npos) << good;
    const std::size_t end = good.find_first_of(",}", at);
    for (const char* bad : {"-1", "1.5", "1e30"}) {
      std::string text = good;
      text.replace(at + key.size(), end - at - key.size(), bad);
      ASSERT_TRUE(WriteFileAtomic(spool->MetaPath(), text, &error)) << error;
      EXPECT_FALSE(spool->ReadMeta(&error).has_value()) << text;
      EXPECT_NE(error.find(std::string("'") + field + "'"), std::string::npos)
          << error;
    }
  }
}

TEST(SpoolTest, CreateClaimFinishLifecycle) {
  const std::string root = FreshDir("lifecycle");
  std::filesystem::remove_all(root);
  std::string error;
  auto spool = Spool::Create(root, kTinySpec, "tiny", 2, &error);
  ASSERT_TRUE(spool.has_value()) << error;

  const auto meta = spool->ReadMeta(&error);
  ASSERT_TRUE(meta.has_value()) << error;
  EXPECT_EQ(meta->shards, 2u);
  EXPECT_EQ(meta->points, 4u);
  EXPECT_FALSE(meta->spec_hash.empty());

  // The stored spec parses back to the same fingerprint.
  const auto spec = spool->LoadSpec(&error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(SpecFingerprint(*spec), meta->spec_hash);

  EXPECT_EQ(spool->CountItems().queued, 2u);

  // Claim moves the item to running/ and writes a first heartbeat.
  auto first = spool->Claim(42, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_EQ(first->id, "shard-0000");
  EXPECT_TRUE(std::filesystem::exists(spool->HeartbeatPath(first->id)));
  EXPECT_EQ(spool->CountItems().running, 1u);

  auto second = spool->Claim(42, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(second->id, "shard-0001");

  // Queue drained: nullopt with no error.
  error = "sentinel";
  EXPECT_FALSE(spool->Claim(42, &error).has_value());
  EXPECT_TRUE(error.empty());

  // Finish requires the rows file to be in place only by convention; the
  // state transition itself is the rename.
  ASSERT_TRUE(WriteFileAtomic(spool->RowsPath(first->id), "", &error)) << error;
  EXPECT_TRUE(spool->FinishItem(*first, &error)) << error;
  EXPECT_EQ(spool->CountItems().done, 1u);
  EXPECT_FALSE(std::filesystem::exists(spool->HeartbeatPath(first->id)));

  // A lost lease: finishing an item that is no longer in running/.
  EXPECT_FALSE(spool->FinishItem(*first, &error));

  // Requeue bumps the attempt and moves the item back to queue/.
  EXPECT_TRUE(spool->Requeue(*second, &error)) << error;
  EXPECT_EQ(spool->CountItems().queued, 1u);
  const auto requeued = spool->ReadItem("queue", second->id, &error);
  ASSERT_TRUE(requeued.has_value()) << error;
  EXPECT_EQ(requeued->attempt, second->attempt + 1);

  // FailItem retires it.
  EXPECT_TRUE(spool->FailItem(*requeued, "queue", &error)) << error;
  EXPECT_EQ(spool->CountItems().failed, 1u);
}

TEST(SpoolTest, CreateRefusesExistingSpoolAndBadSpec) {
  const std::string root = FreshDir("refuse");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value()) << error;
  EXPECT_FALSE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value());
  EXPECT_NE(error.find("already holds a spool"), std::string::npos) << error;

  const std::string other = FreshDir("badspec");
  std::filesystem::remove_all(other);
  EXPECT_FALSE(
      Spool::Create(other, "devices = no-such-device\n", "x", 1, &error).has_value());
}

// --- Merge conflict rules ------------------------------------------------

ResultRow DataRow(std::uint64_t point, const std::string& payload,
                  bool error_row = false) {
  ResultRow row;
  row.AddInt("point", point);
  row.AddText("payload", payload);
  if (error_row) {
    row.AddText("_error", "boom");
  }
  return row;
}

std::string WriteShardFile(const std::string& dir, const std::string& name,
                           const std::string& spec_hash,
                           const std::vector<ResultRow>& rows) {
  RunMeta meta;
  meta.spec_name = "t";
  meta.spec_hash = spec_hash;
  meta.git_sha = "sha";
  meta.created = "2026-01-01T00:00:00Z";
  meta.host = "host";
  meta.points = rows.size();
  std::ostringstream out;
  out << RowToJson(MetaToRow(meta)) << "\n";
  for (const ResultRow& row : rows) {
    out << RowToJson(row) << "\n";
  }
  const std::string path = dir + "/" + name;
  std::string error;
  EXPECT_TRUE(WriteFileAtomic(path, out.str(), &error)) << error;
  return path;
}

TEST(MergeTest, DuplicatesCollapseAndCleanBeatsError) {
  const std::string dir = FreshDir("mergerules");
  std::string error;
  // Shard A: point 0 clean, point 1 errored.  Shard B: point 0 again (the
  // exact same row: a re-run), point 1 clean (a retry that succeeded),
  // point 2 errored (stays errored).
  WriteShardFile(dir, "a.jsonl", "h",
                 {DataRow(0, "x"), DataRow(1, "y", true), DataRow(2, "z", true)});
  WriteShardFile(dir, "b.jsonl", "h", {DataRow(0, "x"), DataRow(1, "y2")});
  const auto merged = MergeShardDir(dir, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_EQ(merged->rows.size(), 3u);
  EXPECT_EQ(merged->rows[0].Text("payload"), "x");
  EXPECT_EQ(merged->rows[1].Text("payload"), "y2");
  EXPECT_FALSE(IsErrorRow(merged->rows[1]));
  EXPECT_TRUE(IsErrorRow(merged->rows[2]));
  EXPECT_EQ(merged->stats.duplicates, 1u);
  EXPECT_EQ(merged->stats.overridden, 1u);
  EXPECT_EQ(merged->stats.error_rows, 1u);

  // An `_error` row never replaces a clean one, whatever the order.
  const std::string dir2 = FreshDir("mergerules2");
  WriteShardFile(dir2, "a.jsonl", "h", {DataRow(5, "good")});
  WriteShardFile(dir2, "b.jsonl", "h", {DataRow(5, "good", true)});
  const auto merged2 = MergeShardDir(dir2, &error);
  ASSERT_TRUE(merged2.has_value()) << error;
  ASSERT_EQ(merged2->rows.size(), 1u);
  EXPECT_FALSE(IsErrorRow(merged2->rows[0]));
}

TEST(MergeTest, ConflictingCleanRowsAndSpecMismatchAreHardErrors) {
  const std::string dir = FreshDir("mergeconflict");
  std::string error;
  WriteShardFile(dir, "a.jsonl", "h", {DataRow(0, "x")});
  WriteShardFile(dir, "b.jsonl", "h", {DataRow(0, "DIFFERENT")});
  EXPECT_FALSE(MergeShardDir(dir, &error).has_value());
  EXPECT_NE(error.find("conflicting"), std::string::npos) << error;

  const std::string dir2 = FreshDir("mergespecs");
  WriteShardFile(dir2, "a.jsonl", "hash1", {DataRow(0, "x")});
  WriteShardFile(dir2, "b.jsonl", "hash2", {DataRow(1, "y")});
  EXPECT_FALSE(MergeShardDir(dir2, &error).has_value());
  EXPECT_NE(error.find("different experiments"), std::string::npos) << error;
}

TEST(MergeTest, PointIndexMustBeANonNegativeInteger) {
  const std::string dir = FreshDir("badpoint");
  const std::string path = dir + "/part.jsonl";
  std::ofstream out(path);
  out << RowToJson(DataRow(3, "ok")) << "\n";
  for (const char* bad : {"-1", "1.5", "1e30"}) {
    ResultRow row = DataRow(0, "x");
    row.fields.front().value = bad;
    out << RowToJson(row) << "\n";
    std::map<std::uint64_t, ResultRow> merged;
    MergeStats stats;
    std::string error;
    EXPECT_FALSE(MergeRowInto(&merged, row, &stats, &error)) << bad;
    EXPECT_NE(error.find("point index"), std::string::npos) << error;
  }
  out.close();
  // Part files hold rows from outside the process: bad indices are not data.
  const auto rows = LoadPartialRows(path);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Text("payload"), "ok");
}

TEST(MergeTest, LoadPartialRowsSkipsTornTailAndHeader) {
  const std::string dir = FreshDir("torn");
  const std::string path = dir + "/part.jsonl";
  {
    std::ofstream out(path);
    out << R"({"_meta":1,"spec_name":"x"})" << "\n";
    out << RowToJson(DataRow(0, "ok")) << "\n";
    out << R"({"point":1,"payload":"tor)";  // crashed mid-write
  }
  const auto rows = LoadPartialRows(path);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Text("payload"), "ok");
}

// --- Both worker transports ----------------------------------------------
//
// The worker, dispatcher and lease-service tests run once per transport:
// `--spool` (the worker drives a LeaseService in-process) and `--connect`
// (the same requests over loopback HTTP).

enum class Transport { kSpool, kConnect };

std::string TransportName(const ::testing::TestParamInfo<Transport>& info) {
  return info.param == Transport::kSpool ? "Spool" : "Connect";
}

HttpRequest PostRequest(const std::string& path, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = body;
  return request;
}

ResultRow ResponseRow(const HttpResponse& response) {
  std::string text = response.body;
  while (!text.empty() && text.back() == '\n') {
    text.pop_back();
  }
  std::string error;
  const auto row = RowFromJson(text, &error);
  EXPECT_TRUE(row.has_value()) << error << ": " << response.body;
  return row.value_or(ResultRow{});
}

// The dispatcher publishes its (ephemeral) port to <root>/http.port once the
// endpoint is listening.
std::uint16_t WaitForPortFile(const std::string& root) {
  for (int i = 0; i < 1000; ++i) {
    std::ifstream in(root + "/http.port");
    int port = 0;
    if (in >> port && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "dispatcher never published its port";
  return 0;
}

// The dispatcher's lease endpoint without its recovery loop: a LeaseService
// over `root` on loopback HTTP, drained from the start so a worker leaves
// once the queue is empty, and the test alone decides when a lease is
// recovered.  It runs in a child process because the kill test forks a
// worker, and under TSan a fork must not happen while threads run here.
class LeaseServerProcess {
 public:
  explicit LeaseServerProcess(const std::string& root) {
    pid_ = fork();
    if (pid_ == 0) {
      Spool spool(root);
      std::string error;
      const auto meta = spool.ReadMeta(&error);
      const auto spec_text = spool.ReadSpecText(&error);
      if (!meta || !spec_text) {
        _exit(1);
      }
      LeaseService service(&spool, *meta, *spec_text, {});
      service.set_drained(true);
      HttpServer server;
      if (!server.Start(0,
                        [&service](const HttpRequest& request) {
                          return service.Handle(request).value_or(HttpNotFound());
                        },
                        &error)) {
        _exit(1);
      }
      WriteFileAtomic(spool.PortPath(), std::to_string(server.port()) + "\n");
      while (true) {
        pause();  // until the destructor's SIGKILL
      }
    }
    port_ = WaitForPortFile(root);
  }
  ~LeaseServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

// Worker options for `transport` over the spool at `root`; with --connect,
// `port` is the lease endpoint.
WorkerOptions WorkerFor(Transport transport, const std::string& root,
                        std::uint16_t port) {
  WorkerOptions options;
  if (transport == Transport::kSpool) {
    options.spool_root = root;
    return options;
  }
  options.port = port;
  options.poll_sec = 0.02;
  options.heartbeat_sec = 0.05;
  options.http.backoff_base_sec = 0.01;
  options.http.backoff_max_sec = 0.05;
  return options;
}

// --- Worker: clean run matches serial, kill mid-shard resumes ------------

class WorkerTest : public ::testing::TestWithParam<Transport> {
 protected:
  // Options for this test's transport; with --connect the first call starts
  // the lease server.
  WorkerOptions Worker(const std::string& root) {
    if (GetParam() == Transport::kConnect && !server_) {
      server_ = std::make_unique<LeaseServerProcess>(root);
    }
    return WorkerFor(GetParam(), root, server_ ? server_->port() : 0);
  }

 private:
  std::unique_ptr<LeaseServerProcess> server_;
};

INSTANTIATE_TEST_SUITE_P(Transports, WorkerTest,
                         ::testing::Values(Transport::kSpool, Transport::kConnect),
                         TransportName);

TEST_P(WorkerTest, DrainsSpoolAndMatchesSerialRun) {
  const std::string root = FreshDir("workerclean");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 3, &error).has_value()) << error;

  const WorkerSummary summary = RunWorkerLoop(Worker(root));
  EXPECT_EQ(summary.items, 3u);
  EXPECT_EQ(summary.rows, 4u);
  EXPECT_EQ(summary.error_rows, 0u);
  EXPECT_TRUE(summary.drained);

  Spool spool(root);
  EXPECT_EQ(spool.CountItems().done, 3u);
  EXPECT_EQ(MergedRowsJson(root), SerialRowsJson(kTinySpec));
  // Every shard went through the lease service, whichever the transport.
  const std::string events = Slurp(spool.EventsPath());
  std::size_t grants = 0;
  for (std::size_t at = events.find("\"event\":\"lease_granted\"");
       at != std::string::npos;
       at = events.find("\"event\":\"lease_granted\"", at + 1)) {
    ++grants;
  }
  EXPECT_EQ(grants, 3u);
}

TEST_P(WorkerTest, PolicyGridShardsMergeByteIdenticalToSerial) {
  // The devices x backends x ftl cross enumerates 12 points; 5 shards
  // exercises the uneven-split arithmetic over the new dimensions.
  std::string error;
  const auto spec = ParseExperimentSpec(kPolicyGridSpec, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(GridSize(*spec), 12u);

  const std::string root = FreshDir("workerpolicygrid");
  std::filesystem::remove_all(root);
  ASSERT_TRUE(Spool::Create(root, kPolicyGridSpec, "grid", 5, &error).has_value())
      << error;

  const WorkerSummary summary = RunWorkerLoop(Worker(root));
  EXPECT_EQ(summary.items, 5u);
  EXPECT_EQ(summary.rows, 12u);
  EXPECT_EQ(summary.error_rows, 0u);

  const std::vector<std::string> merged = MergedRowsJson(root);
  EXPECT_EQ(merged, SerialRowsJson(kPolicyGridSpec));
  // The rows really carry the policy axes (the merge preserved them).
  ASSERT_EQ(merged.size(), 12u);
  EXPECT_NE(merged[0].find("\"ftl\":\"log\""), std::string::npos);
  EXPECT_NE(merged[1].find("\"ftl\":\"page-diff\""), std::string::npos);
  EXPECT_NE(merged[5].find("\"backend\":\"geometry\""), std::string::npos);
  // A spool merge reads its grid's column groups from the spec, for the
  // header of a CSV that gets no rows.
  const auto run = MergeShardDir(root, &error);
  ASSERT_TRUE(run.has_value()) << error;
  EXPECT_TRUE(run->columns == ColumnGroupsOf(*spec));
  EXPECT_TRUE(run->columns.Has(ColumnGroup::kFtl));
}

// A flat directory of `mobisim_sweep --shard` outputs whose rows are all
// `_error` rows merges to the CSV header its shards wrote: their metadata
// name the grid's column groups, which a spool merge reads from its spec.
// A worker whose /done is refused (409 "incomplete upload") gives the lease
// up: one lost lease, no /results after the refusal (it keeps no copy of
// its rows to replay), and its part rows stay in the spool as the next
// attempt's resume set.
TEST(WorkerTest, RefusedDoneLosesTheLeaseWithoutAReplay) {
  const std::string root = FreshDir("workerrefused");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value()) << error;
  Spool spool(root);
  const auto meta = spool.ReadMeta(&error);
  ASSERT_TRUE(meta.has_value()) << error;
  const auto spec_text = spool.ReadSpecText(&error);
  ASSERT_TRUE(spec_text.has_value()) << error;
  LeaseService service(&spool, *meta, *spec_text, {});
  service.set_drained(true);

  std::mutex mu;
  std::vector<std::string> paths;  // every request the worker sent, in order
  HttpServer server;
  ASSERT_TRUE(server.Start(
      0,
      [&](const HttpRequest& request) {
        {
          std::lock_guard<std::mutex> lock(mu);
          paths.push_back(request.path);
        }
        if (request.path == "/done") {
          HttpResponse refused;
          refused.status = 409;
          refused.body = "{\"error\":\"incomplete upload\"}\n";
          return refused;
        }
        return service.Handle(request).value_or(HttpNotFound());
      },
      &error))
      << error;

  const WorkerSummary summary =
      RunWorkerLoop(WorkerFor(Transport::kConnect, root, server.port()));
  server.Stop();
  EXPECT_EQ(summary.lost_leases, 1u);
  EXPECT_EQ(summary.items, 0u);
  const auto done = std::find(paths.begin(), paths.end(), "/done");
  ASSERT_NE(done, paths.end());
  EXPECT_EQ(std::count(paths.begin(), paths.end(), "/done"), 1);
  EXPECT_EQ(std::find(done, paths.end(), "/results"), paths.end());
  EXPECT_EQ(spool.CountItems().done, 0u);
  std::size_t part_rows = 0;
  for (const std::string& part : spool.PartPaths("shard-0000")) {
    part_rows += LoadPartialRows(part).size();
  }
  EXPECT_EQ(part_rows, 4u);
}

TEST(MergeTest, FlatShardsOfErrorRowsKeepTheirGridsColumns) {
  constexpr char kSpec[] =
      "devices = intel-datasheet\n"
      "workloads = synth\n"
      "capacity = 256k\n"
      "ftl = greedy, page-diff\n"
      "seeds = 7\n"
      "scale = 0.05\n";
  std::string error;
  const auto spec = ParseExperimentSpec(kSpec, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const ColumnGroups columns = ColumnGroupsOf(*spec);
  ASSERT_TRUE(columns.Has(ColumnGroup::kFtl));

  // Each shard's file as mobisim_sweep --shard K/2 writes it.
  const std::string flat = FreshDir("mergeflatcolumns");
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::vector<ExperimentPoint> points = FilterShard(EnumerateGrid(*spec), shard, 2);
    ASSERT_EQ(points.size(), 1u);
    RunMeta meta;
    meta.spec_name = "flat";
    meta.spec_hash = SpecFingerprint(*spec);
    meta.points = points.size();
    meta.columns = columns;
    std::ostringstream out;
    out << RowToJson(MetaToRow(meta)) << "\n";
    for (const SweepOutcome& outcome : CollectSweep(points, SweepOptions{})) {
      ASSERT_TRUE(IsErrorRow(outcome.row));
      out << RowToJson(outcome.row) << "\n";
    }
    const std::string path = flat + "/shard-" + std::to_string(shard) + ".jsonl";
    ASSERT_TRUE(WriteFileAtomic(path, out.str(), &error)) << error;
  }
  const auto merged = MergeShardDir(flat, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->stats.error_rows, 2u);
  EXPECT_TRUE(merged->columns == columns);
  const std::string header = SweepCsvHeader(merged->columns);
  EXPECT_EQ(std::count(header.begin(), header.end(), ',') + 1, 66);
  EXPECT_NE(header, SweepCsvHeader());

  // The same grid run through a spool merges to the same header.
  const std::string root = FreshDir("mergespoolcolumns");
  std::filesystem::remove_all(root);
  ASSERT_TRUE(Spool::Create(root, kSpec, "grid", 2, &error).has_value()) << error;
  EXPECT_EQ(RunWorkerLoop(WorkerFor(Transport::kSpool, root, 0)).error_rows, 2u);
  const auto spooled = MergeShardDir(root, &error);
  ASSERT_TRUE(spooled.has_value()) << error;
  EXPECT_EQ(SweepCsvHeader(spooled->columns), header);
  // And so does the spool's done/ directory alone, whose files carry the
  // groups in their metadata.
  const auto done = MergeShardDir(root + "/done", &error);
  ASSERT_TRUE(done.has_value()) << error;
  EXPECT_EQ(SweepCsvHeader(done->columns), header);
}

TEST_P(WorkerTest, KilledWorkerLeavesLeaseAndSuccessorResumes) {
  const std::string root = FreshDir("workerkill");
  std::filesystem::remove_all(root);
  std::string error;
  // One shard holding all four points, so the kill lands mid-shard.
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value()) << error;

  // The doomed worker runs in a fork so its _Exit(137) — a faithful SIGKILL
  // stand-in: no destructors, no finalization — cannot take the test down.
  // Over HTTP, chunks of one row stream each row at once, as the in-process
  // transport always does.
  WorkerOptions doomed = Worker(root);
  doomed.chunk_rows = 1;
  doomed.kill_after_rows = 2;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RunWorkerLoop(doomed);
    _exit(0);  // not reached: the kill hook fires first
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);

  // The spool shows exactly what a kill -9 leaves: a leased item owned by
  // the dead pid, and a part file holding the rows streamed before death.
  Spool spool(root);
  EXPECT_EQ(spool.CountItems().running, 1u);
  const auto beat = ReadHeartbeat(spool.HeartbeatPath("shard-0000"));
  ASSERT_TRUE(beat.has_value());
  if (GetParam() == Transport::kSpool) {
    EXPECT_EQ(beat->owner, static_cast<std::uint64_t>(pid));
  }
  const auto parts = spool.PartPaths("shard-0000");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(LoadPartialRows(parts[0]).size(), 2u);

  // Dispatcher-style recovery: requeue, then a fresh worker claims it and
  // resumes from the dead worker's rows instead of re-simulating them.
  const auto item = spool.ReadItem("running", "shard-0000", &error);
  ASSERT_TRUE(item.has_value()) << error;
  ASSERT_TRUE(spool.Requeue(*item, &error)) << error;

  const WorkerSummary summary = RunWorkerLoop(Worker(root));
  EXPECT_EQ(summary.items, 1u);
  EXPECT_EQ(summary.inherited, 2u);
  EXPECT_EQ(summary.rows, 2u);

  // The merged output is byte-identical to the serial run: same rows, no
  // duplicates, global point order.
  EXPECT_EQ(MergedRowsJson(root), SerialRowsJson(kTinySpec));
}

// --- Dispatcher: poisoned points retried, then exhausted -----------------

class DispatcherTest : public ::testing::TestWithParam<Transport> {};

INSTANTIATE_TEST_SUITE_P(Transports, DispatcherTest,
                         ::testing::Values(Transport::kSpool, Transport::kConnect),
                         TransportName);

TEST_P(DispatcherTest, RetriesPoisonedPointsUntilBudgetExhausted) {
  const std::string root = FreshDir("dispatchpoison");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kPoisonSpec, "poison", 2, &error).has_value())
      << error;

  // No spawned workers (worker_binary stays unresolvable): the dispatcher
  // only enforces leases and retries; the worker loop runs here, in-process,
  // exactly as an externally attached worker would.  With --connect the
  // dispatcher serves its lease endpoint and the worker goes through it.
  DispatcherOptions options;
  options.spool_root = root;
  options.workers = 0;
  options.worker_binary = "/nonexistent/worker";
  options.retry_budget = 1;
  options.poll_sec = 0.02;
  options.http_port = GetParam() == Transport::kConnect ? 0 : -1;

  std::atomic<bool> done{false};
  DispatchSummary summary;
  std::thread dispatcher([&] {
    summary = RunDispatcher(options);
    done.store(true);
  });
  const WorkerOptions worker = WorkerFor(
      GetParam(), root, GetParam() == Transport::kConnect ? WaitForPortFile(root) : 0);
  while (!done.load()) {
    RunWorkerLoop(worker);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  dispatcher.join();

  EXPECT_TRUE(summary.complete);
  EXPECT_EQ(summary.points_done, 2u);
  EXPECT_EQ(summary.error_points, 1u);  // deterministic fault: retry re-fails
  EXPECT_EQ(summary.retries, 1u);       // one targeted `_error`-point retry
  EXPECT_EQ(summary.shards_failed, 0u);

  // The `_error` row stands in the merged output; the healthy point's row
  // is clean; re-running the retry did not duplicate anything.
  const auto merged = MergeShardDir(root, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_EQ(merged->rows.size(), 2u);
  EXPECT_EQ(merged->stats.error_rows, 1u);
}

// --- bench_db incremental merge ------------------------------------------

RunMeta DbMeta(const std::string& name, const std::string& hash) {
  RunMeta meta;
  meta.spec_name = name;
  meta.spec_hash = hash;
  meta.git_sha = "sha1";
  meta.created = "2026-01-01T00:00:00Z";
  meta.host = "host";
  return meta;
}

TEST(BenchDbMergeTest, UnionsShardsIdempotently) {
  const std::string root = FreshDir("dbmerge");
  BenchDb db(root);
  std::string error;

  // First shard lands like a plain store.
  const auto first =
      db.MergeRun(DbMeta("run", "h"), {DataRow(0, "a"), DataRow(2, "c")}, &error);
  ASSERT_TRUE(first.has_value()) << error;

  // Second shard unions in by point index, keeping global order.
  const auto second = db.MergeRun(DbMeta("run", "h"), {DataRow(1, "b")}, &error);
  ASSERT_TRUE(second.has_value()) << error;
  const auto run = LoadRunFile(*second, &error);
  ASSERT_TRUE(run.has_value()) << error;
  ASSERT_EQ(run->rows.size(), 3u);
  EXPECT_EQ(run->rows[0].Text("payload"), "a");
  EXPECT_EQ(run->rows[1].Text("payload"), "b");
  EXPECT_EQ(run->rows[2].Text("payload"), "c");

  // Re-merging the same rows changes nothing: bytes identical, manifest
  // entry count unchanged — the merge is safe to repeat forever.
  const std::string run_bytes = Slurp(*second);
  const std::string index_bytes = Slurp(root + "/index.jsonl");
  const auto again = db.MergeRun(DbMeta("run", "h"), {DataRow(1, "b")}, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(Slurp(*second), run_bytes);
  EXPECT_EQ(Slurp(root + "/index.jsonl"), index_bytes);

  // A clean retry row replaces a stored `_error` row; the reverse never
  // happens.
  ASSERT_TRUE(db.MergeRun(DbMeta("run", "h"), {DataRow(3, "d", true)}, &error));
  ASSERT_TRUE(db.MergeRun(DbMeta("run", "h"), {DataRow(3, "d")}, &error));
  const auto healed = LoadRunFile(*second, &error);
  ASSERT_TRUE(healed.has_value()) << error;
  ASSERT_EQ(healed->rows.size(), 4u);
  EXPECT_FALSE(IsErrorRow(healed->rows[3]));
  ASSERT_TRUE(db.MergeRun(DbMeta("run", "h"), {DataRow(3, "d", true)}, &error));
  const auto still = LoadRunFile(*second, &error);
  ASSERT_TRUE(still.has_value()) << error;
  EXPECT_FALSE(IsErrorRow(still->rows[3]));

  // A different spec fingerprint refuses to merge into the same run.
  EXPECT_FALSE(db.MergeRun(DbMeta("run", "OTHER"), {DataRow(9, "x")}, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

  EXPECT_TRUE(db.Verify(&error)) << error;
}

// --- heartbeat + HTTP plumbing -------------------------------------------

TEST(HeartbeatTest, WriteAndRead) {
  const std::string dir = FreshDir("heartbeat");
  const std::string path = dir + "/x.hb";
  ASSERT_TRUE(WriteHeartbeat(path, {7, 42}));
  const auto beat = ReadHeartbeat(path);
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->counter, 7u);
  EXPECT_EQ(beat->owner, 42u);
  const auto age = SecondsSinceModified(path);
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, 0.0);
  EXPECT_LT(*age, 60.0);
  EXPECT_FALSE(ReadHeartbeat(dir + "/missing.hb").has_value());
  EXPECT_FALSE(SecondsSinceModified(dir + "/missing.hb").has_value());
}

TEST(HttpServerTest, ServesHandlerAndNotFound) {
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0,
                           [](const HttpRequest& request) {
                             HttpResponse response;
                             if (request.path == "/status") {
                               response.body = "{\"ok\":1}\n";
                             } else {
                               response = HttpNotFound();
                             }
                             return response;
                           },
                           &error))
      << error;
  ASSERT_GT(server.port(), 0);

  std::string body;
  int status = 0;
  ASSERT_TRUE(HttpGet(server.port(), "/status", &body, &error, &status)) << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"ok\":1}\n");
  ASSERT_TRUE(HttpGet(server.port(), "/nope", &body, &error, &status)) << error;
  EXPECT_EQ(status, 404);
  server.Stop();
  EXPECT_FALSE(HttpGet(server.port(), "/status", &body, &error, &status));
}

// Live status counters over a half-finished spool.
TEST(DispatcherTest, StatusRowCountsSpoolStates) {
  const std::string root = FreshDir("statusrow");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 4, &error).has_value()) << error;
  Spool spool(root);
  const auto meta = spool.ReadMeta(&error);
  ASSERT_TRUE(meta.has_value()) << error;

  // Run one shard to done; claim one and leave it running with a part row.
  WorkerOptions worker;
  worker.spool_root = root;
  {
    auto item = spool.Claim(1, &error);
    ASSERT_TRUE(item.has_value()) << error;
    // Complete shard-0000 properly via a scoped one-item worker: requeue it
    // first so the worker loop can claim it.
    ASSERT_TRUE(spool.Requeue(*item, &error)) << error;
  }
  // Worker drains the whole queue.
  RunWorkerLoop(worker);

  const ResultRow row = SpoolStatusRow(spool, *meta, 2.0);
  EXPECT_EQ(row.Number("shards_done", -1), 4.0);
  EXPECT_EQ(row.Number("shards_queued", -1), 0.0);
  EXPECT_EQ(row.Number("points_total", -1), 4.0);
  EXPECT_EQ(row.Number("points_done", -1), 4.0);
  EXPECT_EQ(row.Number("points_per_sec", -1), 2.0);
  EXPECT_EQ(row.Number("eta_sec", -1), 0.0);
}

TEST(DispatcherTest, LeaseRowsReportHeartbeatAgeAndStaleness) {
  const std::string root = FreshDir("leaserows");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 2, &error).has_value()) << error;
  Spool spool(root);
  const auto meta = spool.ReadMeta(&error);
  ASSERT_TRUE(meta.has_value()) << error;

  EXPECT_TRUE(SpoolLeaseRows(spool, 30.0).empty());

  const auto item = spool.Claim(42, &error);
  ASSERT_TRUE(item.has_value()) << error;
  const auto rows = SpoolLeaseRows(spool, 30.0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Text("item"), item->id);
  EXPECT_EQ(rows[0].Number("owner", -1), 42.0);
  EXPECT_GE(rows[0].Number("heartbeat_age_sec", -1), 0.0);
  EXPECT_EQ(rows[0].Number("stale", -1), 0.0);

  // An impossibly tight lease deadline marks the same heartbeat stale; 0
  // disables the verdict entirely.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto stale = SpoolLeaseRows(spool, 0.001);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].Number("stale", -1), 1.0);
  const auto unjudged = SpoolLeaseRows(spool, 0.0);
  ASSERT_EQ(unjudged.size(), 1u);
  EXPECT_EQ(unjudged[0].Number("stale", -1), 0.0);

  // The /status payload nests the lease rows after the flat counters.
  const std::string status = RenderStatusJson(spool, *meta, 1.0, 30.0);
  EXPECT_NE(status.find("\"lease_sec\":"), std::string::npos) << status;
  EXPECT_NE(status.find("\"leases\":["), std::string::npos) << status;
  EXPECT_NE(status.find(item->id), std::string::npos) << status;
}

// --- remote workers over the HTTP lease protocol -------------------------

TEST(RemoteWorkerTest, CleanRemoteSweepMatchesSerial) {
  const std::string root = FreshDir("remoteclean");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 3, &error).has_value()) << error;

  DispatcherOptions options;
  options.spool_root = root;
  options.workers = 0;  // remote-only: every shard must travel the lease API
  options.worker_binary = "/nonexistent/worker";
  options.http_port = 0;
  options.poll_sec = 0.02;
  DispatchSummary dispatch;
  std::thread dispatcher([&] { dispatch = RunDispatcher(options); });

  WorkerOptions remote;
  remote.port = WaitForPortFile(root);
  remote.worker_name = "test-remote";
  remote.poll_sec = 0.02;
  remote.heartbeat_sec = 0.05;
  remote.chunk_rows = 2;
  const WorkerSummary summary = RunWorkerLoop(remote);
  dispatcher.join();

  EXPECT_EQ(summary.items, 3u);
  EXPECT_EQ(summary.rows, 4u);
  EXPECT_EQ(summary.lost_leases, 0u);
  EXPECT_TRUE(summary.drained);
  EXPECT_FALSE(summary.unreachable);
  EXPECT_TRUE(dispatch.complete);
  EXPECT_EQ(dispatch.shards_failed, 0u);
  EXPECT_EQ(MergedRowsJson(root), SerialRowsJson(kTinySpec));
}

TEST(RemoteWorkerTest, FaultInjectedSweepStillMatchesSerial) {
  const std::string root = FreshDir("remotefaults");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 3, &error).has_value()) << error;

  DispatcherOptions options;
  options.spool_root = root;
  options.workers = 0;
  options.worker_binary = "/nonexistent/worker";
  options.http_port = 0;
  options.poll_sec = 0.02;
  // A duplicated /lease request claims a shard nobody works on; its lease
  // must expire and requeue, so keep the deadline tight and the budget deep.
  options.lease_sec = 0.4;
  options.retry_budget = 10;
  DispatchSummary dispatch;
  std::thread dispatcher([&] { dispatch = RunDispatcher(options); });

  WorkerOptions remote;
  remote.port = WaitForPortFile(root);
  remote.worker_name = "test-faulty";
  remote.poll_sec = 0.02;
  remote.heartbeat_sec = 0.05;
  remote.chunk_rows = 1;  // more requests: more chances for the faults to bite
  remote.http.max_retries = 8;
  remote.http.backoff_base_sec = 0.01;
  remote.http.backoff_max_sec = 0.05;
  remote.net_fault.seed = 3;
  remote.net_fault.drop_rate = 0.3;
  remote.net_fault.dup_rate = 0.3;
  const WorkerSummary summary = RunWorkerLoop(remote);
  dispatcher.join();

  EXPECT_TRUE(summary.drained);
  EXPECT_FALSE(summary.unreachable);
  EXPECT_GT(summary.transport_failures, 0u);  // the faults actually fired
  EXPECT_TRUE(dispatch.complete);
  EXPECT_EQ(dispatch.shards_failed, 0u);
  EXPECT_EQ(dispatch.points_done, 4u);
  // Drops, duplicates, retries, requeues — none of it may change a byte of
  // the merged output.
  EXPECT_EQ(MergedRowsJson(root), SerialRowsJson(kTinySpec));
}

// The dispatcher keeps answering "drained" until the worker has heard it:
// a proxy in front of it swallows the worker's first three /lease polls
// after the queue runs dry, each past the worker's read deadline, so to the
// worker they are lost requests and it backs off between retries.  Its
// fourth poll must still find the dispatcher and end the loop cleanly.
TEST(RemoteWorkerTest, WorkerWhoseDrainedPollsAreLostStillExitsClean) {
  const std::string root = FreshDir("remotelostdrain");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 2, &error).has_value()) << error;

  DispatcherOptions options;
  options.spool_root = root;
  options.workers = 0;
  options.worker_binary = "/nonexistent/worker";
  options.http_port = 0;
  options.poll_sec = 0.02;
  DispatchSummary dispatch;
  std::thread dispatcher([&] { dispatch = RunDispatcher(options); });
  const std::uint16_t dispatcher_port = WaitForPortFile(root);

  constexpr double kReadDeadlineSec = 0.2;
  const auto outlast_deadline = [] {
    std::this_thread::sleep_for(std::chrono::duration<double>(2 * kReadDeadlineSec));
  };
  Spool spool(root);
  int swallowed = 0;
  HttpServer proxy;
  ASSERT_TRUE(proxy.Start(
      0,
      [&](const HttpRequest& request) {
        const Spool::Counts counts = spool.CountItems();
        if (request.path == "/lease" && counts.queued == 0 && counts.running == 0 &&
            swallowed < 3) {
          ++swallowed;
          outlast_deadline();
          return HttpError(503, "swallowed");
        }
        HttpClient upstream("127.0.0.1", dispatcher_port);
        HttpResponse response;
        std::string fetch_error;
        if (!upstream.Fetch(request.method, request.path, request.body, &response,
                            &fetch_error)) {
          outlast_deadline();  // the dispatcher is gone: look like it
          return HttpError(503, fetch_error);
        }
        return response;
      },
      &error))
      << error;

  WorkerOptions remote;
  remote.port = proxy.port();
  remote.worker_name = "test-lossy";
  remote.poll_sec = 0.02;
  remote.heartbeat_sec = 0.05;
  remote.http.io_timeout_sec = kReadDeadlineSec;  // default backoff schedule
  const WorkerSummary summary = RunWorkerLoop(remote);
  dispatcher.join();
  proxy.Stop();

  EXPECT_EQ(swallowed, 3);
  EXPECT_TRUE(summary.drained);
  EXPECT_FALSE(summary.unreachable);
  EXPECT_GE(summary.transport_failures, 3u);
  EXPECT_TRUE(dispatch.complete);
  EXPECT_EQ(MergedRowsJson(root), SerialRowsJson(kTinySpec));
}

TEST(RemoteWorkerTest, KilledWorkerRequeuesAndSuccessorConverges) {
  const std::string root = FreshDir("remotekill");
  std::filesystem::remove_all(root);
  std::string error;
  // One shard holding all four points, so the kill lands mid-shard.
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value()) << error;

  // fork() order matters under TSan: both children fork before this process
  // creates any threads (the in-process successor worker comes last).
  DispatcherOptions options;
  options.spool_root = root;
  options.workers = 0;
  options.worker_binary = "/nonexistent/worker";
  options.http_port = 0;
  options.poll_sec = 0.02;
  options.lease_sec = 0.4;  // the dead worker's lease must expire quickly
  options.retry_budget = 2;
  const pid_t dispatcher_pid = fork();
  ASSERT_GE(dispatcher_pid, 0);
  if (dispatcher_pid == 0) {
    const DispatchSummary summary = RunDispatcher(options);
    _exit(summary.complete && summary.shards_failed == 0 ? 0 : 1);
  }

  const std::uint16_t port = WaitForPortFile(root);

  // The doomed worker: chunk_rows=1 streams each row immediately, so two
  // rows reach the dispatcher before _Exit(137) — a faithful SIGKILL: no
  // /done, no heartbeat stop, the lease just goes silent.
  const pid_t doomed_pid = fork();
  ASSERT_GE(doomed_pid, 0);
  if (doomed_pid == 0) {
    WorkerOptions doomed;
    doomed.port = port;
    doomed.worker_name = "doomed";
    doomed.poll_sec = 0.02;
    doomed.heartbeat_sec = 0.05;
    doomed.chunk_rows = 1;
    doomed.kill_after_rows = 2;
    RunWorkerLoop(doomed);
    _exit(0);  // not reached: the kill hook fires first
  }
  int status = 0;
  ASSERT_EQ(waitpid(doomed_pid, &status, 0), doomed_pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);

  // The successor polls until the expired lease requeues, inherits the dead
  // worker's two uploaded rows via the resume set, and finishes the shard.
  WorkerOptions successor;
  successor.port = port;
  successor.worker_name = "successor";
  successor.poll_sec = 0.02;
  successor.heartbeat_sec = 0.05;
  const WorkerSummary summary = RunWorkerLoop(successor);
  EXPECT_EQ(summary.items, 1u);
  EXPECT_EQ(summary.inherited, 2u);
  EXPECT_EQ(summary.rows, 2u);
  EXPECT_TRUE(summary.drained);

  ASSERT_EQ(waitpid(dispatcher_pid, &status, 0), dispatcher_pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The recovery is on the record, and the merged output is byte-identical
  // to the serial run: same rows, no duplicates, global point order.
  std::ifstream events(root + "/events.jsonl");
  std::stringstream buffer;
  buffer << events.rdbuf();
  EXPECT_NE(buffer.str().find("shard_requeued"), std::string::npos);
  EXPECT_EQ(MergedRowsJson(root), SerialRowsJson(kTinySpec));
}

// --- LeaseService failure ordering, driven directly ----------------------

// Sends requests to a LeaseService the way a worker of each transport does:
// straight into Handle, or over loopback HTTP to a server that serves it.
class LeaseChannel {
 public:
  LeaseChannel(Transport transport, LeaseService* service) : service_(service) {
    if (transport == Transport::kSpool) {
      return;
    }
    std::string error;
    EXPECT_TRUE(server_.Start(0,
                              [service](const HttpRequest& request) {
                                return service->Handle(request).value_or(
                                    HttpNotFound());
                              },
                              &error))
        << error;
    client_ = std::make_unique<HttpClient>("127.0.0.1", server_.port(),
                                           HttpClientOptions{});
  }

  HttpResponse Send(const std::string& method, const std::string& path,
                    const std::string& body) {
    if (!client_) {
      HttpRequest request = PostRequest(path, body);
      request.method = method;
      return service_->Handle(request).value_or(HttpNotFound());
    }
    HttpResponse response;
    std::string error;
    EXPECT_TRUE(client_->Fetch(method, path, body, &response, &error)) << error;
    return response;
  }
  HttpResponse Post(const std::string& path, const std::string& body) {
    return Send("POST", path, body);
  }

 private:
  LeaseService* service_;
  HttpServer server_;
  std::unique_ptr<HttpClient> client_;
};

class LeaseServiceTest : public ::testing::TestWithParam<Transport> {};

INSTANTIATE_TEST_SUITE_P(Transports, LeaseServiceTest,
                         ::testing::Values(Transport::kSpool, Transport::kConnect),
                         TransportName);

TEST_P(LeaseServiceTest, LateUploadAfterRequeueGets410WithoutCorruption) {
  const std::string root = FreshDir("leaselate");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value()) << error;
  Spool spool(root);
  const auto meta = spool.ReadMeta(&error);
  ASSERT_TRUE(meta.has_value()) << error;
  const auto spec_text = spool.ReadSpecText(&error);
  ASSERT_TRUE(spec_text.has_value()) << error;

  LeaseService service(&spool, *meta, *spec_text, {});
  LeaseChannel channel(GetParam(), &service);
  EXPECT_FALSE(service.Handle(PostRequest("/status", "")).has_value());
  EXPECT_EQ(channel.Send("GET", "/lease", "").status, 405);

  // Claim the only shard.
  HttpResponse response = channel.Post("/lease", "{\"worker\":\"t\"}");
  ASSERT_EQ(response.status, 200);
  ResultRow grant = ResponseRow(response);
  EXPECT_EQ(grant.Text("state"), "lease");
  EXPECT_EQ(grant.Text("spec"), *spec_text);  // verbatim bytes, newlines intact
  EXPECT_EQ(grant.Number("expected_points", -1), 4.0);
  EXPECT_EQ(grant.Text("done_points"), "");
  const std::string token = grant.Text("token");
  ASSERT_FALSE(token.empty());
  EXPECT_EQ(service.active_leases(), 1u);

  const auto chunk = [&](const std::string& chunk_token,
                         const std::vector<ResultRow>& rows) {
    std::ostringstream body;
    body << "{\"token\":\"" << chunk_token << "\"}\n";
    for (const ResultRow& row : rows) {
      body << RowToJson(row) << "\n";
    }
    return channel.Post("/results", body.str());
  };

  // Two rows land; the identical chunk replayed is a pure no-op.
  response = chunk(token, {DataRow(0, "a"), DataRow(1, "b")});
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(ResponseRow(response).Number("accepted", -1), 2.0);
  response = chunk(token, {DataRow(0, "a"), DataRow(1, "b")});
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(ResponseRow(response).Number("accepted", -1), 0.0);
  EXPECT_EQ(ResponseRow(response).Number("duplicates", -1), 2.0);

  // Finalizing short must refuse: two of four points uploaded.
  response = channel.Post("/done", "{\"token\":\"" + token + "\"}");
  EXPECT_EQ(response.status, 409);
  EXPECT_NE(response.body.find("incomplete upload"), std::string::npos);

  // The dispatcher expires the lease: requeue + token invalidation, exactly
  // its recovery sequence.  The partitioned worker's late requests now get
  // 410 Gone and change nothing on disk.
  const auto item = spool.ReadItem("running", "shard-0000", &error);
  ASSERT_TRUE(item.has_value()) << error;
  ASSERT_TRUE(spool.Requeue(*item, &error)) << error;
  service.InvalidateItem(item->id);
  EXPECT_EQ(service.active_leases(), 0u);

  EXPECT_EQ(chunk(token, {DataRow(2, "late")}).status, 410);
  EXPECT_EQ(channel.Post("/done", "{\"token\":\"" + token + "\"}").status, 410);
  EXPECT_EQ(channel.Post("/heartbeat", "{\"token\":\"" + token + "\"}").status,
            410);
  EXPECT_EQ(spool.CountItems().done, 0u);

  // The next claimant inherits the first attempt's rows as its resume set
  // and finishes with only the remainder.
  response = channel.Post("/lease", "{\"worker\":\"t2\"}");
  ASSERT_EQ(response.status, 200);
  grant = ResponseRow(response);
  EXPECT_EQ(grant.Text("state"), "lease");
  EXPECT_EQ(grant.Text("done_points"), "0,1");
  const std::string token2 = grant.Text("token");
  EXPECT_NE(token2, token);

  response = chunk(token2, {DataRow(2, "c"), DataRow(3, "d")});
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(ResponseRow(response).Number("accepted", -1), 2.0);
  response = channel.Post("/done", "{\"token\":\"" + token2 + "\"}");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(ResponseRow(response).Number("rows", -1), 4.0);
  EXPECT_EQ(spool.CountItems().done, 1u);

  // The queue is dry; /lease answers "empty" until the dispatcher flips the
  // drain flag, then "drained".
  EXPECT_EQ(ResponseRow(channel.Post("/lease", "")).Text("state"), "empty");
  service.set_drained(true);
  EXPECT_EQ(ResponseRow(channel.Post("/lease", "")).Text("state"), "drained");
}

TEST(LeaseServiceTest, HeartbeatRowsMustBeANonNegativeInteger) {
  const std::string root = FreshDir("leasebeat");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value()) << error;
  Spool spool(root);
  const auto meta = spool.ReadMeta(&error);
  ASSERT_TRUE(meta.has_value()) << error;
  const auto service = LeaseService::InProcess(&spool, *meta, "");
  const auto grant = service->Handle(PostRequest("/lease", ""));
  ASSERT_TRUE(grant.has_value());
  const std::string token = ResponseRow(*grant).Text("token");
  ASSERT_FALSE(token.empty());
  // The in-process service owns every lease as this process.
  const auto beat = ReadHeartbeat(spool.HeartbeatPath("shard-0000"));
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->owner, static_cast<std::uint64_t>(getpid()));

  const auto heartbeat = [&](const std::string& rows) {
    return *service->Handle(PostRequest(
        "/heartbeat", "{\"token\":\"" + token + "\",\"rows\":" + rows + "}"));
  };
  for (const char* bad : {"-1", "1.5", "1e30"}) {
    const HttpResponse response = heartbeat(bad);
    EXPECT_EQ(response.status, 400) << bad;
    EXPECT_NE(response.body.find("rows"), std::string::npos) << response.body;
  }
  EXPECT_EQ(heartbeat("3").status, 200);
  EXPECT_EQ(ReadHeartbeat(spool.HeartbeatPath("shard-0000"))->counter, 3u);
}

TEST(LeaseServiceTest, UploadsRefreshTheHeartbeatAtMostEveryTenthOfTheLease) {
  const std::string root = FreshDir("leaseupbeat");
  std::filesystem::remove_all(root);
  std::string error;
  ASSERT_TRUE(Spool::Create(root, kTinySpec, "tiny", 1, &error).has_value()) << error;
  Spool spool(root);
  const auto meta = spool.ReadMeta(&error);
  ASSERT_TRUE(meta.has_value()) << error;
  LeaseServiceOptions options;
  options.lease_sec = 3.0;  // uploads may refresh the heartbeat every 0.3 s
  LeaseService service(&spool, *meta, "", options);
  const auto grant = service.Handle(PostRequest("/lease", ""));
  ASSERT_TRUE(grant.has_value());
  const std::string token = ResponseRow(*grant).Text("token");
  ASSERT_FALSE(token.empty());
  const auto upload = [&](std::uint64_t point) {
    return service
        .Handle(PostRequest("/results", "{\"token\":\"" + token + "\"}\n" +
                                            RowToJson(DataRow(point, "p")) + "\n"))
        ->status;
  };
  const std::string beat_path = spool.HeartbeatPath("shard-0000");

  // Claim just wrote the heartbeat: a row uploaded right after it is
  // appended but does not rewrite the file (no sync per row).
  ASSERT_EQ(upload(0), 200);
  EXPECT_EQ(ReadHeartbeat(beat_path)->counter, 0u);
  EXPECT_EQ(LoadPartialRows(spool.PartPath("shard-0000", 0)).size(), 1u);

  // Once the beat is older than lease_sec/10 the next upload refreshes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(upload(1), 200);
  EXPECT_EQ(ReadHeartbeat(beat_path)->counter, 2u);
}

TEST(LeaseServiceTest, ExpectedItemPointsCoversShardsAndRetryLists) {
  WorkItem whole;
  whole.shard = 0;
  whole.shards = 3;
  // 10 points over 3 shards: index % 3 == 0 keeps 4, the others 3.
  EXPECT_EQ(ExpectedItemPoints(whole, 10), 4u);
  whole.shard = 1;
  EXPECT_EQ(ExpectedItemPoints(whole, 10), 3u);
  whole.shard = 2;
  EXPECT_EQ(ExpectedItemPoints(whole, 10), 3u);

  WorkItem retry;
  retry.shard = 0;
  retry.shards = 1;
  retry.points = {3, 7};
  EXPECT_EQ(ExpectedItemPoints(retry, 10), 2u);
}

}  // namespace
}  // namespace mobisim
