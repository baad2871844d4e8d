// Battery-backed SRAM write buffer (Quantum Daytona style).
//
// Absorbs writes so that a spun-down disk can stay asleep (the paper's
// deferred spin-up policy, sections 2 and 5.5).  Contents survive a crash,
// so synchronous writes that fit become asynchronous with respect to the
// disk.  When the buffer fills, the accumulated dirty blocks are flushed to
// the device and the triggering write waits.  Recently written blocks are
// readable out of the buffer.
#ifndef MOBISIM_SRC_CACHE_SRAM_WRITE_BUFFER_H_
#define MOBISIM_SRC_CACHE_SRAM_WRITE_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/device/device_spec.h"
#include "src/util/block_index.h"
#include "src/util/energy_meter.h"
#include "src/util/sim_time.h"

namespace mobisim {

class SramWriteBuffer {
 public:
  // `address_blocks` is the block address space the buffer indexes: every
  // lba passed in must be below it.
  SramWriteBuffer(const MemorySpec& spec, std::uint64_t capacity_bytes,
                  std::uint32_t block_bytes, std::uint64_t address_blocks);

  bool enabled() const { return capacity_blocks_ > 0; }
  std::uint64_t capacity_blocks() const { return capacity_blocks_; }
  std::uint64_t dirty_blocks() const { return dirty_.size(); }

  // True if every block of the range is buffered (read can be serviced
  // here).  Inline: probed once per simulated operation.
  bool ContainsAll(std::uint64_t lba, std::uint32_t count) const {
    if (!enabled() || count == 0) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!dirty_.contains(lba + i)) {
        return false;
      }
    }
    return true;
  }
  // True if any block of the range is buffered (read below would see stale
  // data; the caller must drain first).
  bool ContainsAny(std::uint64_t lba, std::uint32_t count) const {
    if (!enabled()) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (dirty_.contains(lba + i)) {
        return true;
      }
    }
    return false;
  }

  // Absorbs a write if the whole range fits (blocks already present are
  // free).  Returns false -- leaving the buffer untouched -- when it does
  // not fit and the caller must flush first.
  bool Absorb(std::uint64_t lba, std::uint32_t count);

  // Removes blocks covered by a file deletion; they no longer need flushing.
  void Discard(std::uint64_t lba, std::uint32_t count);

  // Empties the buffer into `out` (replacing its contents): the blocks
  // coalesced into ranges sorted by LBA, each flushed as one device write.
  void Drain(std::vector<BlockRange>* out);

  SimTime AccessTime(std::uint64_t bytes) const {
    return static_cast<SimTime>(spec_.access_overhead_us) +
           TransferTimeUs(bytes, spec_.write_kbps);
  }
  void NoteTransfer(std::uint64_t bytes) { meter_.Accumulate(kModeActive, AccessTime(bytes)); }
  void AccountUntil(SimTime t) {
    if (t <= accounted_until_ || !enabled()) {
      accounted_until_ = std::max(accounted_until_, t);
      return;
    }
    meter_.AccumulateJoules(kModeRetention, retention_w_ * SecFromUs(t - accounted_until_));
    accounted_until_ = t;
  }
  void Finish(SimTime end) { AccountUntil(end); }

  const EnergyMeter& energy() const { return meter_; }
  std::uint64_t absorbed_writes() const { return absorbed_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  enum Mode : std::size_t { kModeActive = 0, kModeRetention };

  MemorySpec spec_;
  std::uint64_t capacity_blocks_;
  std::uint32_t block_bytes_;
  EnergyMeter meter_;
  SimTime accounted_until_ = 0;
  double retention_w_ = 0.0;

  FlatBlockSet dirty_;
  std::uint64_t absorbed_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_CACHE_SRAM_WRITE_BUFFER_H_
