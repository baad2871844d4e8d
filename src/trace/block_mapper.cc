#include "src/trace/block_mapper.h"

namespace mobisim {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
    case OpType::kErase:
      return "erase";
  }
  return "unknown";
}

BlockTrace BlockMapper::Map(const Trace& trace) {
  BlockTrace out;
  out.name = trace.name;
  out.block_bytes = trace.block_bytes;
  out.records.reserve(trace.records.size());
  out.total_blocks = MapEach(trace, [&out](std::size_t, const BlockRecord& rec) {
    out.records.push_back(rec);
  });
  return out;
}

}  // namespace mobisim
