#include "src/device/flash_disk.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

FlashDisk::FlashDisk(const DeviceSpec& spec, const DeviceOptions& options)
    : spec_(spec),
      options_(options),
      meter_({{"read", spec.read_w},
              {"write", spec.write_w},
              {"erase", spec.erase_w},
              {"idle", spec.idle_w}}),
      injector_(options.fault) {
  MOBISIM_CHECK(spec.kind == DeviceKind::kFlashDisk);
  ValidateDeviceSpec(spec, options);
  const std::uint64_t blocks = options.capacity_bytes / options.block_bytes;
  MOBISIM_CHECK(blocks > 0);
  mapped_.assign(blocks, false);
  pre_erased_bytes_ = blocks * options.block_bytes;
  async_erase_ = options.asynchronous_erasure && spec.pre_erased_write_kbps > 0.0;
}

void FlashDisk::Preload(std::uint64_t trace_blocks, double utilization,
                        bool /*interleave*/) {
  const std::uint64_t live_blocks = std::max(
      static_cast<std::uint64_t>(utilization * static_cast<double>(mapped_.size())),
      trace_blocks);
  MOBISIM_CHECK(live_blocks <= mapped_.size());
  MOBISIM_CHECK(live_bytes_ == 0);
  for (std::uint64_t i = 0; i < live_blocks; ++i) {
    mapped_[i] = true;
  }
  live_bytes_ = live_blocks * options_.block_bytes;
  pre_erased_bytes_ -= live_bytes_;
}

void FlashDisk::AccountUntil(SimTime t) {
  if (t <= accounted_until_) {
    return;
  }
  SimTime available = t - accounted_until_;
  if (async_erase_ && dirty_bytes_ > 0) {
    // Background erasure of invalidated sectors during idle time.
    const SimTime needed = TransferTimeUs(dirty_bytes_, spec_.erase_kbps);
    const SimTime spent = std::min(available, needed);
    const std::uint64_t erased = std::min(
        dirty_bytes_,
        static_cast<std::uint64_t>(SecFromUs(spent) * spec_.erase_kbps * 1024.0));
    dirty_bytes_ -= erased;
    pre_erased_bytes_ += erased;
    meter_.Accumulate(kModeErase, spent);
    available -= spent;
  }
  meter_.Accumulate(kModeIdle, available);
  accounted_until_ = t;
}

void FlashDisk::AdvanceTo(SimTime now) { AccountUntil(now); }

SimTime FlashDisk::ServiceRead(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  const SimTime start = std::max(now, busy_until_);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  const double overhead_ms =
      rec.file_id == last_file_ ? spec_.sequential_overhead_ms : spec_.read_overhead_ms;
  const SimTime service = UsFromMs(overhead_ms) + TransferTimeUs(bytes, spec_.read_kbps);
  meter_.Accumulate(kModeRead, service);
  busy_until_ = start + service;
  accounted_until_ = std::max(accounted_until_, busy_until_);
  last_file_ = rec.file_id;
  ++counters_.reads;
  counters_.bytes_read += bytes;
  return busy_until_ - now;
}

SimTime FlashDisk::ServiceWrite(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  const SimTime start = std::max(now, busy_until_);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;

  // Update the mapping: overwritten sectors become dirty (their previous
  // physical copies need erasure); first writes consume clean space.
  std::uint64_t overwritten = 0;
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    const std::uint64_t lba = rec.lba + i;
    MOBISIM_CHECK(lba < mapped_.size());
    if (mapped_[lba]) {
      ++overwritten;
    } else {
      mapped_[lba] = true;
      live_bytes_ += options_.block_bytes;
    }
  }

  SimTime transfer;
  if (async_erase_) {
    dirty_bytes_ += overwritten * options_.block_bytes;
    const std::uint64_t fast_bytes = std::min(bytes, pre_erased_bytes_);
    const std::uint64_t slow_bytes = bytes - fast_bytes;
    pre_erased_bytes_ -= fast_bytes;
    // The slow path erases a dirty sector and then writes it, on demand.
    const double coupled_kbps =
        1.0 / (1.0 / spec_.erase_kbps + 1.0 / spec_.pre_erased_write_kbps);
    transfer = TransferTimeUs(fast_bytes, spec_.pre_erased_write_kbps) +
               TransferTimeUs(slow_bytes, coupled_kbps);
    if (slow_bytes > 0) {
      MOBISIM_CHECK(dirty_bytes_ >= slow_bytes);
      dirty_bytes_ -= slow_bytes;
      ++counters_.write_stalls;
      counters_.stall_time_us += TransferTimeUs(slow_bytes, coupled_kbps);
    }
  } else {
    // Erase-coupled write.  A part that supports decoupling (SDP5A) running
    // synchronously erases then writes each sector; older parts fold the
    // erase into `write_kbps`.
    double coupled_kbps = spec_.write_kbps;
    if (spec_.erase_kbps > 0.0 && spec_.pre_erased_write_kbps > 0.0) {
      coupled_kbps = 1.0 / (1.0 / spec_.erase_kbps + 1.0 / spec_.pre_erased_write_kbps);
    }
    transfer = TransferTimeUs(bytes, coupled_kbps);
  }

  const double overhead_ms =
      rec.file_id == last_file_ ? spec_.sequential_overhead_ms : spec_.write_overhead_ms;
  const SimTime service = UsFromMs(overhead_ms) + transfer;
  meter_.Accumulate(kModeWrite, service);
  busy_until_ = start + service;
  accounted_until_ = std::max(accounted_until_, busy_until_);
  last_file_ = rec.file_id;
  ++counters_.writes;
  counters_.bytes_written += bytes;
  return busy_until_ - now;
}

SimTime FlashDisk::FailedWrite(SimTime now, const BlockRecord& rec) {
  // The attempt pays bus overhead and programming time at the coupled rate
  // but commits no sector, so the mapping (and dirty/pre-erased accounting)
  // is untouched and a retry replays the identical update.
  AccountUntil(now);
  const SimTime start = std::max(now, busy_until_);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  double kbps = spec_.write_kbps;
  if (spec_.erase_kbps > 0.0 && spec_.pre_erased_write_kbps > 0.0) {
    kbps = 1.0 / (1.0 / spec_.erase_kbps + 1.0 / spec_.pre_erased_write_kbps);
  }
  const double overhead_ms =
      rec.file_id == last_file_ ? spec_.sequential_overhead_ms : spec_.write_overhead_ms;
  const SimTime service = UsFromMs(overhead_ms) + TransferTimeUs(bytes, kbps);
  meter_.Accumulate(kModeWrite, service);
  busy_until_ = start + service;
  accounted_until_ = std::max(accounted_until_, busy_until_);
  last_file_ = rec.file_id;
  ++counters_.writes;
  counters_.bytes_written += bytes;
  return busy_until_ - now;
}

IoResult FlashDisk::ReadOp(SimTime now, const BlockRecord& rec) {
  // Reads mutate no logical state, so the error draw can follow the service.
  const SimTime t = ServiceRead(now, rec);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

IoResult FlashDisk::WriteOp(SimTime now, const BlockRecord& rec) {
  // Writes mutate the mapping, so the error is drawn *before* committing.
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {FailedWrite(now, rec), IoStatus::kTransientError};
  }
  return {ServiceWrite(now, rec), IoStatus::kOk};
}

SimTime FlashDisk::PowerLoss(SimTime now) {
  // Block-interface flash commits each sector as it is programmed; nothing
  // volatile to lose and no recovery pass.  In-flight work is abandoned.
  AccountUntil(now);
  busy_until_ = std::min(busy_until_, now);
  last_file_ = ~std::uint32_t{0};
  return 0;
}

void FlashDisk::Trim(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    const std::uint64_t lba = rec.lba + i;
    MOBISIM_CHECK(lba < mapped_.size());
    if (mapped_[lba]) {
      mapped_[lba] = false;
      live_bytes_ -= options_.block_bytes;
      dirty_bytes_ += options_.block_bytes;
    }
  }
  if (!async_erase_) {
    // With coupled erasure the space is reusable immediately; fold it back.
    pre_erased_bytes_ += dirty_bytes_;
    dirty_bytes_ = 0;
  }
}

void FlashDisk::Finish(SimTime end) { AccountUntil(std::max(end, busy_until_)); }

}  // namespace mobisim
