#include "src/core/result_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/util/parse.h"

namespace mobisim {

namespace {

// The names RunMeta's `columns` field gives the optional column groups.
constexpr std::pair<ColumnGroup, const char*> kColumnGroupNames[] = {
    {ColumnGroup::kFtl, "ftl"},
    {ColumnGroup::kFault, "fault"},
};

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Keys come from identifiers and device mode names; normalize to
// [a-z0-9_] so they are valid CSV headers and easy to query downstream.
std::string SanitizeKey(const std::string& raw) {
  std::string key;
  key.reserve(raw.size());
  for (const char c : raw) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      key += '_';
    }
  }
  return key;
}

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  bool Parse(ResultRow* row, std::string* error) {
    SkipSpace();
    if (!Consume('{')) {
      SetError(error, "expected '{'");
      return false;
    }
    SkipSpace();
    if (Consume('}')) {
      return AtEnd(error);
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) {
        SetError(error, "expected string key at offset " + std::to_string(pos_));
        return false;
      }
      SkipSpace();
      if (!Consume(':')) {
        SetError(error, "expected ':' after key '" + key + "'");
        return false;
      }
      SkipSpace();
      ResultField field;
      field.key = key;
      if (!ParseValue(&field, error)) {
        return false;
      }
      row->fields.push_back(std::move(field));
      SkipSpace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return AtEnd(error);
      }
      SetError(error, "expected ',' or '}' at offset " + std::to_string(pos_));
      return false;
    }
  }

 private:
  bool AtEnd(std::string* error) {
    SkipSpace();
    if (pos_ != text_.size()) {
      SetError(error, "trailing garbage after object");
      return false;
    }
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          *out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseValue(ResultField* field, std::string* error) {
    if (pos_ >= text_.size()) {
      SetError(error, "unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == '"') {
      field->quoted = true;
      if (!ParseString(&field->value)) {
        SetError(error, "bad string value for key '" + field->key + "'");
        return false;
      }
      return true;
    }
    if (c == '{' || c == '[') {
      SetError(error, "nested values are not supported (key '" + field->key + "')");
      return false;
    }
    // number / true / false / null: take the raw token.
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) == 0) {
      ++pos_;
    }
    field->value = text_.substr(start, pos_ - start);
    if (field->value.empty()) {
      SetError(error, "empty value for key '" + field->key + "'");
      return false;
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string CsvQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void AddStats(ResultRow* row, const std::string& prefix, const RunningStats& stats) {
  row->AddInt(prefix + "_count", stats.count());
  row->AddNumber(prefix + "_mean", stats.mean());
  row->AddNumber(prefix + "_stddev", stats.stddev());
  row->AddNumber(prefix + "_min", stats.min());
  row->AddNumber(prefix + "_max", stats.max());
}

void AddPercentiles(ResultRow* row, const std::string& prefix,
                    const ReservoirSample& sample) {
  const std::vector<double> qs = sample.Quantiles({0.50, 0.90, 0.95, 0.99});
  row->AddNumber(prefix + "_p50", qs[0]);
  row->AddNumber(prefix + "_p90", qs[1]);
  row->AddNumber(prefix + "_p95", qs[2]);
  row->AddNumber(prefix + "_p99", qs[3]);
}

}  // namespace

void ResultRow::AddText(const std::string& key, const std::string& value) {
  fields.push_back(ResultField{SanitizeKey(key), value, /*quoted=*/true});
}

void ResultRow::AddNumber(const std::string& key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields.push_back(ResultField{SanitizeKey(key), buf, /*quoted=*/false});
}

void ResultRow::AddInt(const std::string& key, std::uint64_t value) {
  fields.push_back(ResultField{SanitizeKey(key), std::to_string(value),
                               /*quoted=*/false});
}

const ResultField* ResultRow::Find(const std::string& key) const {
  for (const ResultField& field : fields) {
    if (field.key == key) {
      return &field;
    }
  }
  return nullptr;
}

double ResultRow::Number(const std::string& key, double fallback) const {
  const ResultField* field = Find(key);
  if (field == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(field->value.c_str(), &end);
  if (end == field->value.c_str() || *end != '\0') {
    return fallback;
  }
  return value;
}

std::optional<std::uint64_t> ResultRow::Uint(const std::string& key) const {
  const ResultField* field = Find(key);
  if (field == nullptr || field->quoted) {
    return std::nullopt;
  }
  if (const auto exact = ParseUint64(field->value)) {
    return exact;  // digits only: exact even past 2^53
  }
  // Integral spellings such as 1e3 or 4.0; 2^64 is the first double that no
  // longer fits.
  const auto value = ParseFiniteDouble(field->value);
  if (!value || *value < 0.0 || *value >= 18446744073709551616.0 ||
      std::trunc(*value) != *value) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*value);
}

std::string ResultRow::Text(const std::string& key, const std::string& fallback) const {
  const ResultField* field = Find(key);
  return field == nullptr ? fallback : field->value;
}

ResultRow ResultToRow(const SimResult& result) {
  ResultRow row;
  row.AddText("workload", result.workload);
  row.AddText("device", result.device);

  row.AddNumber("device_energy_j", result.device_energy_j);
  row.AddNumber("dram_energy_j", result.dram_energy_j);
  row.AddNumber("sram_energy_j", result.sram_energy_j);
  row.AddNumber("total_energy_j", result.total_energy_j());

  AddStats(&row, "read_ms", result.read_response_ms);
  AddStats(&row, "write_ms", result.write_response_ms);
  AddStats(&row, "overall_ms", result.overall_response_ms);
  AddPercentiles(&row, "read_ms", result.read_percentiles_ms);
  AddPercentiles(&row, "write_ms", result.write_percentiles_ms);

  row.AddNumber("duration_sec", result.duration_sec);
  row.AddInt("record_count", result.record_count);
  row.AddInt("warm_record_count", result.warm_record_count);

  const DeviceCounters& c = result.counters;
  row.AddInt("dev_reads", c.reads);
  row.AddInt("dev_writes", c.writes);
  row.AddInt("dev_bytes_read", c.bytes_read);
  row.AddInt("dev_bytes_written", c.bytes_written);
  row.AddInt("spinups", c.spinups);
  row.AddInt("segment_erases", c.segment_erases);
  row.AddInt("blocks_copied", c.blocks_copied);
  row.AddInt("clean_jobs", c.clean_jobs);
  row.AddInt("write_stalls", c.write_stalls);
  row.AddNumber("stall_sec", static_cast<double>(c.stall_time_us) / 1e6);

  row.AddInt("dram_hits", result.dram_hits);
  row.AddInt("dram_misses", result.dram_misses);
  row.AddInt("sram_absorbed", result.sram_absorbed);
  row.AddInt("sram_flushes", result.sram_flushes);

  row.AddNumber("max_segment_erases", result.max_segment_erases);
  row.AddNumber("mean_segment_erases", result.mean_segment_erases);

  // Optional groups keep their frozen places: FTL counters before
  // mode_seconds, the fault block after it.
  if (result.columns.Has(ColumnGroup::kFtl)) {
    row.AddInt("diff_writes", c.diff_writes);
    row.AddInt("diff_merges", c.diff_merges);
    row.AddInt("diff_merge_reads", c.diff_merge_reads);
    row.AddInt("remap_table_hits", c.remap_table_hits);
    row.AddInt("remap_table_wraps", c.remap_table_wraps);
  }

  // Device operating modes differ per device kind (disk: read/write/idle/
  // sleep/spinup; flash: read/write/erase/...), so a column per mode would
  // give heterogeneous sweeps ragged schemas.  Pack them into one
  // "name=seconds;..." field instead; keys stay identical across devices.
  std::string modes;
  for (const auto& [mode, seconds] : result.device_mode_seconds) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.17g", mode.c_str(), seconds);
    if (!modes.empty()) {
      modes += ';';
    }
    modes += buf;
  }
  row.AddText("mode_seconds", modes);

  if (result.columns.Has(ColumnGroup::kFault)) {
    row.AddInt("power_losses", result.power_losses);
    row.AddInt("lost_acked_writes", result.lost_acked_writes);
    row.AddInt("io_retries", result.io_retries);
    row.AddInt("io_failures", result.io_failures);
    row.AddInt("transient_errors", result.transient_errors);
    row.AddNumber("recovery_sec", result.recovery_sec);
    row.AddNumber("recovery_energy_j", result.recovery_energy_j);
    row.AddInt("remapped_blocks", result.remapped_blocks);
    row.AddInt("bad_segments", result.bad_segments);
    row.AddNumber("usable_capacity_fraction", result.usable_capacity_fraction);
    // Same packed convention as mode_seconds: "sec=fraction;...".
    std::string timeline;
    for (const auto& [sec, fraction] : result.capacity_timeline) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g=%.17g", sec, fraction);
      if (!timeline.empty()) {
        timeline += ';';
      }
      timeline += buf;
    }
    row.AddText("capacity_timeline", timeline);
  }
  return row;
}

bool IsMetaRow(const ResultRow& row) {
  return !row.fields.empty() && row.fields.front().key == "_meta";
}

ResultRow MetaToRow(const RunMeta& meta) {
  ResultRow row;
  row.AddInt("_meta", 1);
  row.AddText("spec_name", meta.spec_name);
  row.AddText("spec_hash", meta.spec_hash);
  row.AddText("git_sha", meta.git_sha);
  row.AddText("created", meta.created);
  row.AddText("host", meta.host);
  row.AddInt("points", meta.points);
  std::string columns;
  for (const auto& [group, name] : kColumnGroupNames) {
    if (meta.columns.Has(group)) {
      columns += (columns.empty() ? "" : ",") + std::string(name);
    }
  }
  if (!columns.empty()) {
    row.AddText("columns", columns);
  }
  return row;
}

std::optional<RunMeta> MetaFromRow(const ResultRow& row) {
  if (!IsMetaRow(row)) {
    return std::nullopt;
  }
  RunMeta meta;
  meta.spec_name = row.Text("spec_name");
  meta.spec_hash = row.Text("spec_hash");
  meta.git_sha = row.Text("git_sha");
  meta.created = row.Text("created");
  meta.host = row.Text("host");
  if (row.Find("points") != nullptr) {
    const auto points = row.Uint("points");
    if (!points) {
      return std::nullopt;
    }
    meta.points = *points;
  }
  std::istringstream columns(row.Text("columns"));
  for (std::string name; std::getline(columns, name, ',');) {
    const auto* it = std::find_if(std::begin(kColumnGroupNames), std::end(kColumnGroupNames),
                                  [&name](const auto& entry) { return name == entry.second; });
    if (it == std::end(kColumnGroupNames)) {
      return std::nullopt;
    }
    meta.columns = meta.columns.With(it->first);
  }
  return meta;
}

std::string RowToJson(const ResultRow& row) {
  std::string out = "{";
  bool first = true;
  for (const ResultField& field : row.fields) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"" + JsonEscape(field.key) + "\":";
    if (field.quoted) {
      out += "\"" + JsonEscape(field.value) + "\"";
    } else {
      out += field.value;
    }
  }
  out += "}";
  return out;
}

std::optional<ResultRow> RowFromJson(const std::string& text, std::string* error) {
  ResultRow row;
  JsonScanner scanner(text);
  if (!scanner.Parse(&row, error)) {
    return std::nullopt;
  }
  return row;
}

std::string RowToCsvHeader(const ResultRow& row) {
  std::string out;
  bool first = true;
  for (const ResultField& field : row.fields) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += field.key;  // sanitized keys never need quoting
  }
  return out;
}

std::string RowToCsvLine(const ResultRow& row) {
  std::string out;
  bool first = true;
  for (const ResultField& field : row.fields) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += field.quoted ? CsvQuote(field.value) : field.value;
  }
  return out;
}

}  // namespace mobisim
