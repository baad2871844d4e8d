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

TraceView BlockMapper::Map(const Trace& trace) {
  return TraceView::FromImage(TraceImage::Build(trace));
}

}  // namespace mobisim
