// Streaming destinations for sweep results.
//
// The sweep runner emits rows strictly in point (enumeration) order, one call
// at a time, so sinks need no locking of their own.  Finish() flushes; it is
// called once after the last row (and is safe to call on an empty run).
#ifndef MOBISIM_SRC_RUNNER_RESULT_SINK_H_
#define MOBISIM_SRC_RUNNER_RESULT_SINK_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/core/result_io.h"

namespace mobisim {

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void Write(const ResultRow& row) = 0;
  virtual void Finish() {}
  // Whether the sink can take `_error` rows from failed sweep points.  Such
  // rows carry only the point metadata plus an `_error` message, so sinks
  // with a rigid schema (CSV) opt out and the runner skips them.
  virtual bool AcceptsErrorRows() const { return true; }
  // Whether the sink tolerates rows whose schema differs row to row (the
  // bench registry's hand-measured rows: microbenchmark cells, testbed
  // curves).  Fixed-schema sinks (CSV) opt out; such rows only reach
  // schema-free destinations like JSONL.
  virtual bool AcceptsDynamicRows() const { return true; }
};

// One JSON object per line (JSONL / NDJSON).
class JsonlResultSink : public ResultSink {
 public:
  explicit JsonlResultSink(std::ostream& out) : out_(out) {}
  void Write(const ResultRow& row) override;
  void Finish() override;

 private:
  std::ostream& out_;
};

// CSV with a header derived from the first row.  Later rows must carry the
// same keys in the same order (the sweep runner guarantees this for rows it
// produces); a mismatch MOBISIM_CHECK-fails rather than writing a corrupt
// table.
//
// `default_header` covers the zero-row case: when no row ever arrives,
// Finish() emits it so the file is still a well-formed (empty) table and
// downstream readers never special-case header-less files.  Sweep callers
// pass SweepCsvHeader(groups); an empty default keeps the old emit-nothing
// behaviour.
class CsvResultSink : public ResultSink {
 public:
  explicit CsvResultSink(std::ostream& out, std::string default_header = "")
      : out_(out), default_header_(std::move(default_header)) {}
  void Write(const ResultRow& row) override;
  void Finish() override;
  bool AcceptsErrorRows() const override { return false; }
  bool AcceptsDynamicRows() const override { return false; }

 private:
  std::ostream& out_;
  std::string default_header_;
  std::string header_;
  bool wrote_header_ = false;
};

// Collects every row it is given, `_error` and dynamic rows included, for a
// caller that needs the whole run at once (the result store, the ablation
// matrix).  Attach it only then: it keeps every row until it goes.
class VectorResultSink : public ResultSink {
 public:
  void Write(const ResultRow& row) override { rows_.push_back(row); }
  const std::vector<ResultRow>& rows() const { return rows_; }

 private:
  std::vector<ResultRow> rows_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_RUNNER_RESULT_SINK_H_
