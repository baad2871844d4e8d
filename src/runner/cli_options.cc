#include "src/runner/cli_options.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>

#include <unistd.h>

#include "src/bench_db/bench_db.h"
#include "src/trace/trace_cache.h"
#include "src/util/parse.h"

namespace mobisim {

namespace {

// Parses a strictly positive integer; false on garbage, sign, zero, or
// overflow (ParseUint64 is strict — no silent wrap or saturation).
bool ParsePositive(const std::string& text, std::uint64_t* value) {
  const auto parsed = ParseUint64(text);
  if (!parsed || *parsed == 0) {
    return false;
  }
  *value = *parsed;
  return true;
}

bool ParseUnsigned(const std::string& text, std::uint64_t* value) {
  const auto parsed = ParseUint64(text);
  if (!parsed) {
    return false;
  }
  *value = *parsed;
  return true;
}

}  // namespace

bool ExtractCommonFlags(std::vector<std::string>* args, CliOptions* options,
                        std::string* error) {
  options->git_sha = DefaultGitSha();
  bool no_trace_cache = false;
  std::vector<std::string> rest;
  const std::vector<std::string>& in = *args;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::string& flag = in[i];
    const bool takes_value = flag == "--jobs" || flag == "--seed" ||
                             flag == "--replicas" || flag == "--jsonl" ||
                             flag == "--csv" || flag == "--db" || flag == "--name" ||
                             flag == "--sha" || flag == "--trace-cache";
    if (takes_value && i + 1 >= in.size()) {
      *error = flag + " requires an argument";
      return false;
    }
    if (flag == "--jobs") {
      std::uint64_t jobs = 0;
      if (!ParsePositive(in[++i], &jobs)) {
        *error = "--jobs wants a positive integer, got '" + in[i] + "'";
        return false;
      }
      options->jobs = static_cast<std::size_t>(jobs);
    } else if (flag == "--serial") {
      options->jobs = 1;
    } else if (flag == "--seed") {
      std::uint64_t seed = 0;
      if (!ParseUnsigned(in[++i], &seed)) {
        *error = "--seed wants a non-negative integer, got '" + in[i] + "'";
        return false;
      }
      options->seed = seed;
    } else if (flag == "--replicas") {
      std::uint64_t replicas = 0;
      if (!ParsePositive(in[++i], &replicas)) {
        *error = "--replicas wants a positive integer, got '" + in[i] + "'";
        return false;
      }
      options->replicas = static_cast<std::size_t>(replicas);
    } else if (flag == "--jsonl") {
      options->jsonl_path = in[++i];
    } else if (flag == "--csv") {
      options->csv_path = in[++i];
    } else if (flag == "--db") {
      options->db_root = in[++i];
    } else if (flag == "--name") {
      options->db_name = in[++i];
    } else if (flag == "--sha") {
      options->git_sha = in[++i];
    } else if (flag == "--trace-cache") {
      options->trace_cache_dir = in[++i];
    } else if (flag == "--no-trace-cache") {
      no_trace_cache = true;
    } else if (flag == "--quiet") {
      options->quiet = true;
    } else {
      rest.push_back(flag);
    }
  }
  if (!options->db_root.empty() && options->db_name.empty()) {
    *error = "--db requires --name";
    return false;
  }
  // Environment default, explicitly overridable in both directions.
  if (no_trace_cache) {
    options->trace_cache_dir.clear();
  } else if (options->trace_cache_dir.empty()) {
    const char* env = std::getenv("MOBISIM_TRACE_CACHE");
    if (env != nullptr) {
      options->trace_cache_dir = env;
    }
  }
  *args = std::move(rest);
  return true;
}

bool ParseShardSpec(const std::string& text, std::size_t* shard,
                    std::size_t* shards, std::string* error) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    *error = "shard '" + text + "' must be K/N (e.g. 0/4)";
    return false;
  }
  const auto k = ParseUint64(text.substr(0, slash));
  const auto n = ParseUint64(text.substr(slash + 1));
  if (!k || !n) {
    *error = "shard '" + text + "' wants two non-negative integers K/N";
    return false;
  }
  if (*n == 0) {
    *error = "shard '" + text + "' has a zero shard count";
    return false;
  }
  if (*k >= *n) {
    *error = "shard index " + std::to_string(*k) + " must be < shard count " +
             std::to_string(*n);
    return false;
  }
  *shard = static_cast<std::size_t>(*k);
  *shards = static_cast<std::size_t>(*n);
  return true;
}

const char* CommonFlagsUsage() {
  return "common flags: [--jobs N | --serial] [--seed N] [--replicas N]\n"
         "              [--jsonl FILE|-] [--csv FILE|-]\n"
         "              [--db DIR --name NAME [--sha SHA]] [--quiet]\n"
         "              [--trace-cache DIR | --no-trace-cache]\n"
         "              (trace cache default: $MOBISIM_TRACE_CACHE)\n";
}

std::unique_ptr<TraceCache> OpenTraceCache(const CliOptions& options) {
  if (options.trace_cache_dir.empty()) {
    return nullptr;
  }
  return std::make_unique<TraceCache>(options.trace_cache_dir);
}

std::string NowUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

std::string HostName() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
  const char* env = std::getenv("HOSTNAME");
  return env != nullptr ? env : "unknown";
}

std::string DefaultGitSha() {
  for (const char* var : {"GITHUB_SHA", "MOBISIM_GIT_SHA"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && value[0] != '\0') {
      return value;
    }
  }
  return "local";
}

bool SinkSet::Open(const CliOptions& options, const RunMeta& meta,
                   const std::string& csv_header, std::string* error) {
  const auto open = [error](const std::string& path, std::ofstream* file,
                            std::ostream** out) {
    if (path == "-") {
      *out = &std::cout;
      return true;
    }
    file->open(path);
    if (!*file) {
      *error = "cannot open " + path + " for writing";
      return false;
    }
    *out = file;
    return true;
  };
  if (!options.jsonl_path.empty()) {
    std::ostream* out = nullptr;
    if (!open(options.jsonl_path, &jsonl_file_, &out)) {
      return false;
    }
    jsonl_ = std::make_unique<JsonlResultSink>(*out);
    // Metadata header first: identifies the run and fingerprints the spec so
    // downstream diffs can verify they compare like with like.
    jsonl_->Write(MetaToRow(meta));
    sinks_.push_back(jsonl_.get());
  }
  if (!options.csv_path.empty()) {
    std::ostream* out = nullptr;
    if (!open(options.csv_path, &csv_file_, &out)) {
      return false;
    }
    csv_ = std::make_unique<CsvResultSink>(*out, csv_header);
    sinks_.push_back(csv_.get());
  }
  if (!options.db_root.empty()) {
    store_rows_ = std::make_unique<VectorResultSink>();
    sinks_.push_back(store_rows_.get());
    db_root_ = options.db_root;
    meta_ = meta;
  }
  quiet_ = options.quiet;
  return true;
}

void SinkSet::AddStdoutCsv(const std::string& csv_header) {
  csv_ = std::make_unique<CsvResultSink>(std::cout, csv_header);
  sinks_.push_back(csv_.get());
}

void SinkSet::CloseSinks() {
  if (finished_) {
    return;
  }
  finished_ = true;
  for (ResultSink* sink : sinks_) {
    sink->Finish();
  }
  if (jsonl_file_.is_open()) {
    jsonl_file_.close();
  }
  if (csv_file_.is_open()) {
    csv_file_.close();
  }
}

bool SinkSet::Finish(const char* tool) {
  const bool store = !finished_ && store_rows_ != nullptr;
  CloseSinks();
  if (!store) {
    return true;
  }
  std::string error;
  const auto stored = BenchDb(db_root_).MergeRun(meta_, store_rows_->rows(), &error);
  if (!stored) {
    std::fprintf(stderr, "%s: error storing run: %s\n", tool, error.c_str());
    return false;
  }
  if (!quiet_) {
    std::fprintf(stderr, "%s: stored %s (spec hash %s)\n", tool, stored->c_str(),
                 meta_.spec_hash.c_str());
  }
  return true;
}

}  // namespace mobisim
