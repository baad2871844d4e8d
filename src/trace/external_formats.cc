#include "src/trace/external_formats.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

namespace mobisim {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

bool IsBlankOrComment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') {
      return true;
    }
    if (c != ' ' && c != '\t' && c != '\r') {
      return false;
    }
  }
  return true;
}

// Fills rec's lba, block_count and file_id from a request of `length` units
// (at least one) starting at unit `start`, `units_per_block` units to a
// block.  False when the request's end overflows or its block count does not
// fit the 32-bit block_count column.
bool SetBlocks(std::uint64_t start, std::uint64_t length, std::uint64_t units_per_block,
               BlockRecord* rec) {
  length = std::max<std::uint64_t>(length, 1);
  if (length > std::numeric_limits<std::uint64_t>::max() - start) {
    return false;
  }
  const std::uint64_t first = start / units_per_block;
  const std::uint64_t last = (start + length - 1) / units_per_block;
  if (last - first >= std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  rec->lba = first;
  rec->block_count = static_cast<std::uint32_t>(last - first + 1);
  // Requests in external traces carry no file identity; synthesize one from
  // the request's 64-block neighbourhood so the seek model sees locality
  // when requests target nearby blocks.
  rec->file_id = static_cast<std::uint32_t>(first >> 6);
  return true;
}

// Imported times stay below 2^62 us (about 146,000 years), so the sums of
// times and durations the simulator forms stay well inside SimTime.
constexpr double kMaxImportedUs = 4611686018427387904.0;

// Sets rec's time from a timestamp of `value` units, `us_per_unit`
// microseconds each.  False, with a message naming the line, for a time
// that is negative, not a number or kMaxImportedUs or more.
bool SetTime(double value, double us_per_unit, const char* format, int line_no,
             const char* unit, BlockRecord* rec, std::string* error) {
  const double us = value * us_per_unit;
  if (!(us >= 0.0 && us < kMaxImportedUs)) {
    std::ostringstream message;
    message << format << " line " << line_no << ": timestamp " << value << ' ' << unit
            << " is out of range (0 to 2^62 us)";
    SetError(error, message.str());
    return false;
  }
  rec->time_us = static_cast<SimTime>(us);
  return true;
}

// Sorts the imported rows by time (stably, so equal timestamps keep file
// order) and builds the trace's image.
std::optional<TraceView> Finish(const char* format, const std::string& name,
                                std::uint32_t block_bytes, std::vector<BlockRecord>* rows,
                                std::string* error) {
  if (rows->empty()) {
    SetError(error, std::string(format) + " trace contained no records");
    return std::nullopt;
  }
  std::stable_sort(rows->begin(), rows->end(), [](const BlockRecord& a, const BlockRecord& b) {
    return a.time_us < b.time_us;
  });
  std::uint64_t total_blocks = 0;
  for (const BlockRecord& rec : *rows) {
    total_blocks = std::max(total_blocks, rec.lba + rec.block_count);
  }
  return TraceView::FromImage(TraceImage::Build(name, block_bytes, total_blocks, *rows));
}

}  // namespace

std::optional<TraceView> ImportHplTrace(std::istream& in, const HplImportOptions& options,
                                        std::string* error) {
  std::vector<BlockRecord> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsBlankOrComment(line)) {
      continue;
    }
    std::istringstream ls(line);
    double timestamp_sec = 0.0;
    int device = 0;
    std::uint64_t start = 0;
    std::uint64_t length = 0;
    std::string op;
    ls >> timestamp_sec >> device >> start >> length >> op;
    if (ls.fail() || op.empty()) {
      SetError(error, "hpl line " + std::to_string(line_no) + ": malformed");
      return std::nullopt;
    }
    if (options.device_filter >= 0 && device != options.device_filter) {
      continue;
    }
    const char op_char = static_cast<char>(std::tolower(op[0]));
    if (op_char != 'r' && op_char != 'w') {
      SetError(error, "hpl line " + std::to_string(line_no) + ": op must be R or W");
      return std::nullopt;
    }

    BlockRecord rec;
    if (!SetTime(timestamp_sec, kUsPerSec, "hpl", line_no, "s", &rec, error)) {
      return std::nullopt;
    }
    rec.op = op_char == 'r' ? OpType::kRead : OpType::kWrite;
    if (!SetBlocks(start, length, options.offsets_in_bytes ? options.block_bytes : 1, &rec)) {
      SetError(error, "hpl line " + std::to_string(line_no) + ": length " +
                          std::to_string(length) + " does not fit a 32-bit block count");
      return std::nullopt;
    }
    rows.push_back(rec);
  }
  return Finish("hpl", "hpl-import", options.block_bytes, &rows, error);
}

std::optional<TraceView> ImportDiskSimTrace(std::istream& in,
                                            const DiskSimImportOptions& options,
                                            std::string* error) {
  const std::uint64_t scale = std::max<std::uint64_t>(
      1, options.block_bytes / options.disksim_block_bytes);
  std::vector<BlockRecord> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsBlankOrComment(line)) {
      continue;
    }
    std::istringstream ls(line);
    double timestamp_ms = 0.0;
    int device = 0;
    std::uint64_t blkno = 0;
    std::uint64_t size_blocks = 0;
    unsigned flags = 0;
    ls >> timestamp_ms >> device >> blkno >> size_blocks >> flags;
    if (ls.fail()) {
      SetError(error, "disksim line " + std::to_string(line_no) + ": malformed");
      return std::nullopt;
    }
    if (options.device_filter >= 0 && device != options.device_filter) {
      continue;
    }
    BlockRecord rec;
    if (!SetTime(timestamp_ms, kUsPerMs, "disksim", line_no, "ms", &rec, error)) {
      return std::nullopt;
    }
    rec.op = (flags & 1u) != 0 ? OpType::kRead : OpType::kWrite;  // DiskSim: bit 0 = read
    if (!SetBlocks(blkno, size_blocks, scale, &rec)) {
      SetError(error, "disksim line " + std::to_string(line_no) + ": size " +
                          std::to_string(size_blocks) + " does not fit a 32-bit block count");
      return std::nullopt;
    }
    rows.push_back(rec);
  }
  return Finish("disksim", "disksim-import", options.block_bytes, &rows, error);
}

}  // namespace mobisim
