// File-level and block-level trace representations.
//
// The paper's traces are file-level (which file, read/write, offset, size,
// time) and are preprocessed into disk-level operations by assigning each
// file a unique disk location (section 4.1).  We mirror that split: a Trace
// holds file-level TraceRecords; BlockMapper (block_mapper.h) lowers them to
// logical-block operations (BlockRecords) the simulator consumes, held in a
// TraceView (trace_view.h).  The generators also hand their records to
// BlockMapper one at a time, with no Trace in between.
#ifndef MOBISIM_SRC_TRACE_TRACE_RECORD_H_
#define MOBISIM_SRC_TRACE_TRACE_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/sim_time.h"

namespace mobisim {

enum class OpType : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  // Whole-file deletion (the dos and synth traces contain these).
  kErase = 2,
};

const char* OpTypeName(OpType op);

// One file-level trace event.
struct TraceRecord {
  SimTime time_us = 0;
  OpType op = OpType::kRead;
  std::uint32_t file_id = 0;
  // Byte offset within the file; unused for kErase.
  std::uint64_t offset = 0;
  // Transfer length in bytes; unused for kErase.
  std::uint32_t size_bytes = 0;
};

// A complete file-level workload.
struct Trace {
  std::string name;
  // File-system block size this workload was collected with (Table 3).
  std::uint32_t block_bytes = 1024;
  std::vector<TraceRecord> records;
};

// One block-level (disk-level) operation after file->extent mapping.
struct BlockRecord {
  SimTime time_us = 0;
  OpType op = OpType::kRead;
  // First logical block address touched.
  std::uint64_t lba = 0;
  std::uint32_t block_count = 0;
  // Originating file, kept so device models can apply the paper's
  // same-file-no-seek assumption (section 4.2).
  std::uint32_t file_id = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_TRACE_RECORD_H_
