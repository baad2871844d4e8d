// Regression diff of two sweep runs of the same spec.
//
//   mobisim_benchdiff --base FILE --cand FILE [options]
//   mobisim_benchdiff --db DIR --spec NAME --cand-sha SHA [--base-sha SHA] [options]
//   mobisim_benchdiff --verify-db DIR
//
// Joins the runs by stable point index, computes per-metric deltas (energy
// breakdown, latency stats/percentiles, erase and stall counters), and
// classifies each cell as pass / noise / regression / improvement.  The noise
// band comes from seed-replicated points when the spec carried `replicas`;
// otherwise from --threshold.  Exit status: 0 clean, 1 regressions found,
// 2 usage, 3 runs could not be loaded or compared.
//
// Options:
//   --threshold F       fallback relative band without replicas (default 0.05)
//   --force             diff even when spec fingerprints differ
//   --markdown FILE|-   also write a GitHub-flavoured Markdown report
//   --quiet             suppress the text report (exit status only)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/bench_db/bench_db.h"
#include "src/bench_db/benchdiff.h"
#include "src/util/parse.h"

namespace {

using namespace mobisim;

int Usage() {
  std::fprintf(
      stderr,
      "usage: mobisim_benchdiff --base FILE --cand FILE [options]\n"
      "       mobisim_benchdiff --db DIR --spec NAME --cand-sha SHA\n"
      "                         [--base-sha SHA] [options]\n"
      "       mobisim_benchdiff --verify-db DIR\n"
      "options: [--threshold F] [--force] [--markdown FILE|-] [--quiet]\n");
  return 2;
}

bool ParsePositive(const std::string& text, double* out) {
  // Strict finite parse: "nan" would sail through a `v <= 0.0` check and
  // poison every threshold comparison downstream.
  const auto v = ParseFiniteDouble(text);
  if (!v || *v <= 0.0) {
    return false;
  }
  *out = *v;
  return true;
}

}  // namespace

namespace {

int RunMain(int argc, char** argv) {
  std::string base_path;
  std::string cand_path;
  std::string db_root;
  std::string spec_name;
  std::string base_sha;
  std::string cand_sha;
  std::string verify_root;
  std::string markdown_path;
  bool quiet = false;
  DiffOptions options;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&](std::string* out) {
      if (i + 1 >= args.size()) {
        return false;
      }
      *out = args[++i];
      return true;
    };
    std::string value;
    if (args[i] == "--base" && next(&base_path)) {
    } else if (args[i] == "--cand" && next(&cand_path)) {
    } else if (args[i] == "--db" && next(&db_root)) {
    } else if (args[i] == "--spec" && next(&spec_name)) {
    } else if (args[i] == "--base-sha" && next(&base_sha)) {
    } else if (args[i] == "--cand-sha" && next(&cand_sha)) {
    } else if (args[i] == "--verify-db" && next(&verify_root)) {
    } else if (args[i] == "--markdown" && next(&markdown_path)) {
    } else if (args[i] == "--threshold" && next(&value)) {
      if (!ParsePositive(value, &options.rel_threshold)) {
        return Usage();
      }
    } else if (args[i] == "--force") {
      options.require_same_spec = false;
    } else if (args[i] == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "error: unrecognised argument '%s'\n", args[i].c_str());
      return Usage();
    }
  }

  if (!verify_root.empty()) {
    BenchDb db(verify_root);
    std::string error;
    if (!db.Verify(&error)) {
      std::fprintf(stderr, "mobisim_benchdiff: store verification FAILED: %s\n",
                   error.c_str());
      return 1;
    }
    if (!quiet) {
      std::fprintf(stderr, "mobisim_benchdiff: store %s verified (%zu runs)\n",
                   verify_root.c_str(), db.ReadIndex(nullptr).size());
    }
    return 0;
  }

  // Resolve file paths through the store when asked to.
  if (!db_root.empty()) {
    if (spec_name.empty() || cand_sha.empty()) {
      return Usage();
    }
    BenchDb db(db_root);
    cand_path = db.RunPath(cand_sha, spec_name);
    if (base_path.empty()) {
      if (base_sha.empty()) {
        const auto latest = db.FindLatest(spec_name, cand_sha);
        if (!latest) {
          std::fprintf(stderr, "no stored baseline for spec '%s' in %s\n",
                       spec_name.c_str(), db_root.c_str());
          return 3;
        }
        base_sha = latest->git_sha;
      }
      base_path = db.RunPath(base_sha, spec_name);
    }
  }
  if (base_path.empty() || cand_path.empty()) {
    return Usage();
  }

  std::string error;
  const auto base = LoadRunFile(base_path, &error);
  if (!base) {
    std::fprintf(stderr, "error loading base: %s\n", error.c_str());
    return 3;
  }
  const auto cand = LoadRunFile(cand_path, &error);
  if (!cand) {
    std::fprintf(stderr, "error loading candidate: %s\n", error.c_str());
    return 3;
  }

  DiffReport report = DiffRuns(*base, *cand, options);
  if (!base->has_meta) {
    report.base_label = base_path;
  }
  if (!cand->has_meta) {
    report.cand_label = cand_path;
  }

  if (!quiet) {
    std::cout << RenderReportText(report);
  }
  if (!markdown_path.empty()) {
    const std::string markdown = RenderReportMarkdown(report);
    if (markdown_path == "-") {
      std::cout << markdown;
    } else {
      std::ofstream out(markdown_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", markdown_path.c_str());
        return 3;
      }
      out << markdown;
    }
  }

  if (!report.comparable) {
    return 3;
  }
  return report.HasRegressions() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobisim_benchdiff: fatal: %s\n", e.what());
    return 1;
  }
}
