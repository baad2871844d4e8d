// Importers for common published disk-trace formats, so the simulator can
// run real traces (e.g. the Ruemmler/Wilkes HP traces this paper used, or
// DiskSim workloads) when the user has them.
//
// Supported formats:
//
//  - HPL (Ruemmler & Wilkes / SRT-style ASCII): one request per line,
//        <timestamp-seconds> <device> <start-byte-or-block> <length> <R|W>
//    Timestamps are decimal seconds; `hpl_offsets_in_bytes` selects whether
//    the third column is bytes or blocks.
//
//  - DiskSim ASCII: one request per line,
//        <timestamp-ms> <devno> <blkno> <size-in-blocks> <flags>
//    where bit 0 of flags set means a read (DiskSim convention).
//
// Both importers produce a TraceView directly (these are disk-level traces;
// like the paper's hp trace they should be simulated without a DRAM cache):
// they collect the rows, sort them by time and build the image once.
// Requests for devices other than `device_filter` are dropped when the
// filter is >= 0.  A request whose length spans more blocks than the 32-bit
// block count holds fails the import, naming its line.
#ifndef MOBISIM_SRC_TRACE_EXTERNAL_FORMATS_H_
#define MOBISIM_SRC_TRACE_EXTERNAL_FORMATS_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "src/trace/trace_view.h"

namespace mobisim {

struct HplImportOptions {
  std::uint32_t block_bytes = 1024;
  bool offsets_in_bytes = true;
  int device_filter = -1;  // -1 = accept all devices
};

std::optional<TraceView> ImportHplTrace(std::istream& in, const HplImportOptions& options,
                                        std::string* error = nullptr);

struct DiskSimImportOptions {
  std::uint32_t disksim_block_bytes = 512;  // DiskSim's block unit
  std::uint32_t block_bytes = 1024;         // output trace block size
  int device_filter = -1;
};

std::optional<TraceView> ImportDiskSimTrace(std::istream& in,
                                            const DiskSimImportOptions& options,
                                            std::string* error = nullptr);

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_EXTERNAL_FORMATS_H_
