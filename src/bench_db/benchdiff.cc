#include "src/bench_db/benchdiff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "src/runner/sweep_runner.h"

namespace mobisim {

namespace {

constexpr double kEps = 1e-12;

// Rows written for failed sweep points carry only metadata plus `_error`.
bool IsErrorRow(const ResultRow& row) { return row.Find("_error") != nullptr; }

// Two rows that agree on every point column but point, seed and replica
// (every optional group on) are replicas of the same experiment.
std::string GroupKey(const ResultRow& row) {
  static const ResultRow columns = [] {
    ExperimentPoint point;
    point.config.export_columns = ColumnGroups().With(ColumnGroup::kFtl).With(ColumnGroup::kFault);
    return PointToRow(point);
  }();
  std::string key;
  for (const ResultField& column : columns.fields) {
    if (column.key != "point" && column.key != "seed" && column.key != "replica") {
      key += row.Text(column.key, "?");
      key += '|';
    }
  }
  return key;
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatRel(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", rel * 100.0);
  return buf;
}

std::string Label(const StoredRun& run, const char* fallback) {
  if (!run.has_meta) {
    return fallback;
  }
  std::string label = run.meta.git_sha;
  if (!run.meta.created.empty()) {
    label += " (" + run.meta.created + ")";
  }
  return label;
}

std::string Verdict(const DiffReport& report) {
  if (!report.comparable) {
    return "INCOMPARABLE — " + report.incomparable_reason;
  }
  if (report.HasRegressions()) {
    std::ostringstream out;
    out << "REGRESSION — " << report.RegressionCount()
        << " cell(s) beyond the noise band";
    return out.str();
  }
  return "OK — no metric beyond the noise band";
}

}  // namespace

const char* DiffClassName(DiffClass cls) {
  switch (cls) {
    case DiffClass::kPass:
      return "pass";
    case DiffClass::kNoise:
      return "noise";
    case DiffClass::kRegression:
      return "regression";
    case DiffClass::kImprovement:
      return "improvement";
  }
  return "?";
}

const std::vector<std::string>& DefaultDiffMetrics() {
  static const std::vector<std::string> kMetrics = {
      // Energy breakdown (Fig. 2/4/5 territory).
      "total_energy_j", "device_energy_j", "dram_energy_j", "sram_energy_j",
      // Latency statistics and percentiles.
      "read_ms_mean", "read_ms_p50", "read_ms_p90", "read_ms_p95", "read_ms_p99",
      "write_ms_mean", "write_ms_p50", "write_ms_p90", "write_ms_p95", "write_ms_p99",
      "overall_ms_mean",
      // Endurance and stalls.
      "segment_erases", "blocks_copied", "max_segment_erases", "mean_segment_erases",
      "write_stalls", "stall_sec",
  };
  return kMetrics;
}

bool DiffReport::HasRegressions() const { return RegressionCount() > 0; }

std::size_t DiffReport::RegressionCount() const {
  std::size_t count = 0;
  for (const MetricSummary& summary : summaries) {
    count += summary.regressions;
  }
  return count;
}

DiffReport DiffRuns(const StoredRun& base, const StoredRun& cand,
                    const DiffOptions& options) {
  DiffReport report;
  report.base_label = Label(base, "base");
  report.cand_label = Label(cand, "candidate");
  report.spec_name = base.has_meta ? base.meta.spec_name
                                   : (cand.has_meta ? cand.meta.spec_name : "");

  if (options.require_same_spec && base.has_meta && cand.has_meta &&
      base.meta.spec_hash != cand.meta.spec_hash) {
    report.comparable = false;
    report.incomparable_reason = "spec fingerprints differ (base " +
                                 base.meta.spec_hash + ", candidate " +
                                 cand.meta.spec_hash + ")";
    return report;
  }

  // Join by stable point index.
  std::map<std::uint64_t, const ResultRow*> base_by_point;
  std::map<std::uint64_t, const ResultRow*> cand_by_point;
  const auto index_rows = [](const StoredRun& run,
                             std::map<std::uint64_t, const ResultRow*>* by_point) {
    for (const ResultRow& row : run.rows) {
      const auto point = row.Uint("point");
      if (!point) {
        return false;
      }
      (*by_point)[*point] = &row;
    }
    return true;
  };
  if (!index_rows(base, &base_by_point) || !index_rows(cand, &cand_by_point)) {
    report.comparable = false;
    report.incomparable_reason = "a row without a non-negative integer point index";
    return report;
  }
  if (base_by_point.size() != base.rows.size() ||
      cand_by_point.size() != cand.rows.size()) {
    report.comparable = false;
    report.incomparable_reason = "duplicate point indices in a run";
    return report;
  }
  if (base_by_point.size() != cand_by_point.size()) {
    std::ostringstream reason;
    reason << "point counts differ (base " << base_by_point.size() << ", candidate "
           << cand_by_point.size() << ")";
    report.comparable = false;
    report.incomparable_reason = reason.str();
    return report;
  }
  for (const auto& [point, row] : base_by_point) {
    (void)row;
    if (cand_by_point.find(point) == cand_by_point.end()) {
      report.comparable = false;
      report.incomparable_reason =
          "point " + std::to_string(point) + " missing from the candidate run";
      return report;
    }
  }

  // A point that failed in either run is incomparable, not a regression:
  // drop it from every cell and count it as skipped.
  for (auto it = base_by_point.begin(); it != base_by_point.end();) {
    const ResultRow* cand_row = cand_by_point.at(it->first);
    if (IsErrorRow(*it->second) || IsErrorRow(*cand_row)) {
      cand_by_point.erase(it->first);
      it = base_by_point.erase(it);
      ++report.skipped_points;
    } else {
      ++it;
    }
  }
  report.points = base_by_point.size();

  // Replica groups over the base run: point -> group, group -> member rows.
  std::map<std::string, std::vector<const ResultRow*>> groups;
  for (const ResultRow& row : base.rows) {
    if (IsErrorRow(row)) {
      continue;
    }
    groups[GroupKey(row)].push_back(&row);
  }

  // Probe metric presence on a healthy row; error rows carry no metrics.
  const auto has_metric = [](const std::vector<ResultRow>& rows,
                             const std::string& metric) {
    for (const ResultRow& row : rows) {
      if (!IsErrorRow(row)) {
        return row.Find(metric) != nullptr;
      }
    }
    return true;  // no healthy rows: nothing to compare, nothing to skip
  };

  const std::vector<std::string>& metrics =
      options.metrics.empty() ? DefaultDiffMetrics() : options.metrics;
  for (const std::string& metric : metrics) {
    const bool in_base = has_metric(base.rows, metric);
    const bool in_cand = has_metric(cand.rows, metric);
    if (!in_base || !in_cand) {
      report.skipped_metrics.push_back(metric);
      continue;
    }

    // Seed-noise band per replica group: observed max-min spread.
    std::map<std::string, double> group_spread;
    for (const auto& [key, members] : groups) {
      if (members.size() < 2) {
        continue;
      }
      double lo = members.front()->Number(metric);
      double hi = lo;
      for (const ResultRow* member : members) {
        const double v = member->Number(metric);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      group_spread[key] = hi - lo;
    }

    MetricSummary summary;
    summary.metric = metric;
    double worst_regression = 0.0;
    double worst_any = 0.0;
    std::size_t worst_regression_point = 0;
    std::size_t worst_any_point = 0;

    for (const auto& [point, base_row] : base_by_point) {
      const ResultRow* cand_row = cand_by_point.at(point);
      MetricDiff cell;
      cell.point = point;
      cell.metric = metric;
      cell.base = base_row->Number(metric);
      cell.cand = cand_row->Number(metric);
      cell.delta = cell.cand - cell.base;
      cell.rel = cell.delta / std::max(std::abs(cell.base), kEps);

      const auto spread = group_spread.find(GroupKey(*base_row));
      if (spread != group_spread.end()) {
        cell.from_replicas = true;
        cell.allowed = spread->second * options.noise_mult;
        report.noise_from_replicas = true;
      } else {
        cell.allowed = options.rel_threshold * std::abs(cell.base);
      }
      cell.allowed =
          std::max({cell.allowed, options.min_rel_floor * std::abs(cell.base), kEps});

      if (std::abs(cell.delta) <= options.min_rel_floor * std::abs(cell.base) + kEps) {
        cell.cls = DiffClass::kPass;
        ++summary.pass;
      } else if (std::abs(cell.delta) <= cell.allowed) {
        cell.cls = DiffClass::kNoise;
        ++summary.noise;
      } else if (cell.delta > 0.0) {
        // All tracked metrics are lower-is-better.
        cell.cls = DiffClass::kRegression;
        ++summary.regressions;
      } else {
        cell.cls = DiffClass::kImprovement;
        ++summary.improvements;
      }

      if (std::abs(cell.rel) > std::abs(worst_any)) {
        worst_any = cell.rel;
        worst_any_point = point;
      }
      if (cell.cls == DiffClass::kRegression &&
          std::abs(cell.rel) > std::abs(worst_regression)) {
        worst_regression = cell.rel;
        worst_regression_point = point;
      }
      if (cell.cls == DiffClass::kRegression || cell.cls == DiffClass::kImprovement) {
        report.flagged.push_back(cell);
      }
    }

    if (summary.regressions > 0) {
      summary.worst_rel = worst_regression;
      summary.worst_point = worst_regression_point;
    } else {
      summary.worst_rel = worst_any;
      summary.worst_point = worst_any_point;
    }
    report.summaries.push_back(std::move(summary));
  }
  return report;
}

std::string RenderReportText(const DiffReport& report) {
  std::ostringstream out;
  out << "benchdiff";
  if (!report.spec_name.empty()) {
    out << ": " << report.spec_name;
  }
  out << "\n  base      " << report.base_label << "\n  candidate " << report.cand_label
      << "\n";
  if (!report.comparable) {
    out << "verdict: " << Verdict(report) << "\n";
    return out.str();
  }
  out << "  " << report.points << " points joined; noise band "
      << (report.noise_from_replicas ? "from seed-replica spread"
                                     : "from fixed relative threshold")
      << "\n";
  if (report.skipped_points > 0) {
    out << "  " << report.skipped_points
        << " failed point(s) skipped (incomparable, not regressions)\n";
  }
  out << "\n";

  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %5s %5s %5s %5s  %s\n", "metric", "pass",
                "noise", "regr", "impr", "worst");
  out << line;
  for (const MetricSummary& s : report.summaries) {
    std::snprintf(line, sizeof(line), "%-22s %5zu %5zu %5zu %5zu  %s @p%zu\n",
                  s.metric.c_str(), s.pass, s.noise, s.regressions, s.improvements,
                  FormatRel(s.worst_rel).c_str(), s.worst_point);
    out << line;
  }
  for (const std::string& metric : report.skipped_metrics) {
    out << "  (skipped " << metric << ": not present in both runs)\n";
  }

  bool header_done = false;
  for (const MetricDiff& cell : report.flagged) {
    if (cell.cls != DiffClass::kRegression) {
      continue;
    }
    if (!header_done) {
      out << "\nregressions:\n";
      header_done = true;
    }
    out << "  point " << cell.point << "  " << cell.metric << "  "
        << FormatValue(cell.base) << " -> " << FormatValue(cell.cand) << "  ("
        << FormatRel(cell.rel) << ", allowed +/-"
        << FormatValue(cell.allowed) << (cell.from_replicas ? ", replica band" : "")
        << ")\n";
  }
  out << "\nverdict: " << Verdict(report) << "\n";
  return out.str();
}

std::string RenderReportMarkdown(const DiffReport& report) {
  std::ostringstream out;
  out << "## benchdiff";
  if (!report.spec_name.empty()) {
    out << ": `" << report.spec_name << "`";
  }
  out << "\n\n";
  out << "**base** `" << report.base_label << "` vs **candidate** `"
      << report.cand_label << "`";
  if (!report.comparable) {
    out << "\n\n**Verdict: :no_entry: " << Verdict(report) << "**\n";
    return out.str();
  }
  out << " — " << report.points << " points, noise band "
      << (report.noise_from_replicas ? "from seed-replica spread"
                                     : "from fixed relative threshold");
  if (report.skipped_points > 0) {
    out << ", " << report.skipped_points << " failed point(s) skipped";
  }
  out << "\n\n";

  out << "| Metric | Pass | Noise | Regressions | Improvements | Worst |\n";
  out << "|---|---:|---:|---:|---:|---:|\n";
  for (const MetricSummary& s : report.summaries) {
    out << "| `" << s.metric << "` | " << s.pass << " | " << s.noise << " | "
        << s.regressions << " | " << s.improvements << " | " << FormatRel(s.worst_rel)
        << " @p" << s.worst_point << " |\n";
  }
  if (!report.skipped_metrics.empty()) {
    out << "\nSkipped (absent from a run): ";
    for (std::size_t i = 0; i < report.skipped_metrics.size(); ++i) {
      out << (i > 0 ? ", " : "") << "`" << report.skipped_metrics[i] << "`";
    }
    out << "\n";
  }

  bool header_done = false;
  for (const MetricDiff& cell : report.flagged) {
    if (cell.cls != DiffClass::kRegression) {
      continue;
    }
    if (!header_done) {
      out << "\n### Regressions\n\n";
      out << "| Point | Metric | Base | Candidate | Delta | Allowed |\n";
      out << "|---:|---|---:|---:|---:|---:|\n";
      header_done = true;
    }
    out << "| " << cell.point << " | `" << cell.metric << "` | "
        << FormatValue(cell.base) << " | " << FormatValue(cell.cand) << " | "
        << FormatRel(cell.rel) << " | ±" << FormatValue(cell.allowed) << " |\n";
  }

  out << "\n**Verdict: " << (report.HasRegressions() ? ":x: " : ":white_check_mark: ")
      << Verdict(report) << "**\n";
  return out.str();
}

}  // namespace mobisim
