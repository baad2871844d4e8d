// Structured export of simulation results.
//
// A SimResult is flattened into a ResultRow: an ordered list of key/value
// fields (numbers rendered with round-trip precision, strings marked for
// quoting).  Rows serialize to JSON objects (one per line -> JSONL) and CSV,
// and parse back for tooling and tests.  The sweep engine prepends
// configuration fields to each row so every output line is self-describing.
#ifndef MOBISIM_SRC_CORE_RESULT_IO_H_
#define MOBISIM_SRC_CORE_RESULT_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/sim_result.h"

namespace mobisim {

struct ResultField {
  std::string key;
  std::string value;  // already rendered
  bool quoted = false;  // true -> JSON string / always-quoted CSV text
};

// Ordered flat record; keys are unique within a row.
struct ResultRow {
  std::vector<ResultField> fields;

  void AddText(const std::string& key, const std::string& value);
  // Doubles render with %.17g so that JSON -> parse -> JSON is bit-stable.
  void AddNumber(const std::string& key, double value);
  void AddInt(const std::string& key, std::uint64_t value);

  const ResultField* Find(const std::string& key) const;
  // Value lookup helpers; `fallback` when the key is missing or non-numeric.
  double Number(const std::string& key, double fallback = 0.0) const;
  // A non-negative integer field (a point index, a shard number, a count):
  // nullopt when the key is missing, text, negative, fractional or beyond
  // 64 bits.  Fields that arrive from outside the program go through this
  // instead of casting Number(), which is undefined for such values.
  std::optional<std::uint64_t> Uint(const std::string& key) const;
  std::string Text(const std::string& key, const std::string& fallback = "") const;
};

// Flattens the full SimResult: energy split, response-time statistics,
// percentiles, counters, cache behaviour, endurance, and per-mode device
// seconds (as mode_<name>_sec); FTL and fault columns per result.columns.
ResultRow ResultToRow(const SimResult& result);

// --- Run metadata (JSONL header line) ---
//
// A stored run may begin with one metadata line: a JSON object whose first
// key is "_meta".  It identifies the run (git SHA, spec name), fingerprints
// the spec that produced it (so a diff harness can refuse to compare
// incompatible matrices), and records provenance (date, host).  Data readers
// skip it; it never appears in CSV output.
struct RunMeta {
  std::string spec_name;  // logical name, e.g. "ci_reference"
  std::string spec_hash;  // SpecFingerprint() of the producing spec
  std::string git_sha;    // commit the binary was built from ("local" if unknown)
  std::string created;    // ISO-8601 UTC timestamp
  std::string host;       // machine that ran the sweep
  std::uint64_t points = 0;  // data rows that follow
  // The optional column groups of the run's grid, so a merge of its rows
  // can write their CSV header even when no clean row survives.  Written as
  // "columns" ("ftl", "fault" or "ftl,fault") only when a group is set.
  ColumnGroups columns;
};

// True when the row is a metadata header (first field is "_meta").
bool IsMetaRow(const ResultRow& row);
ResultRow MetaToRow(const RunMeta& meta);
// Returns nullopt when `row` is not a metadata header, or when its `points`
// is present but not a non-negative integer, or its `columns` names a group
// that does not exist.
std::optional<RunMeta> MetaFromRow(const ResultRow& row);

// --- JSON (one flat object per row) ---
std::string RowToJson(const ResultRow& row);
// Parses a flat JSON object with string/number/bool/null values.  Returns
// nullopt (with a message in `error`) on malformed input or nesting.
std::optional<ResultRow> RowFromJson(const std::string& text, std::string* error);

// --- CSV (RFC-4180-style quoting) ---
std::string RowToCsvHeader(const ResultRow& row);
std::string RowToCsvLine(const ResultRow& row);
// Reassembles a row from a header line and a data line.
std::optional<ResultRow> RowFromCsv(const std::string& header, const std::string& line,
                                    std::string* error);

}  // namespace mobisim

#endif  // MOBISIM_SRC_CORE_RESULT_IO_H_
