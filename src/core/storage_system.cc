#include "src/core/storage_system.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

std::uint64_t RequiredCapacityBytes(std::uint64_t trace_bytes, double utilization,
                                    std::uint32_t segment_bytes) {
  MOBISIM_CHECK(utilization > 0.0 && utilization < 1.0);
  const std::uint32_t segment = std::max<std::uint32_t>(segment_bytes, 1);
  const auto needed = static_cast<std::uint64_t>(
      static_cast<double>(trace_bytes) / utilization);
  // Round up to whole segments and leave the cleaner three segments of slack.
  const std::uint64_t rounded = ((needed + segment - 1) / segment + 3) * segment;
  return rounded;
}

StorageSystem::StorageSystem(const SimConfig& config, std::uint64_t trace_blocks,
                             std::uint32_t block_bytes)
    : config_(config),
      block_bytes_(block_bytes),
      dram_(config.dram, config.dram_bytes, block_bytes, trace_blocks),
      sram_(config.sram, config.sram_bytes, block_bytes, trace_blocks) {
  DeviceOptions options;
  options.block_bytes = block_bytes;
  options.spin_down_after_us = config.spin_down_after_us;
  options.spin_down_policy = config.spin_down_policy;
  options.geometry_timing = config.use_disk_geometry;
  options.background_cleaning = config.background_cleaning;
  options.cleaning_policy = config.cleaning_policy;
  options.ftl_policy = config.ftl_policy;
  options.separate_cleaning_segment = config.separate_cleaning_segment;
  options.asynchronous_erasure = config.flash_async_erasure;
  options.fault = config.fault;
  fault_on_ = config.fault.enabled();

  const std::uint64_t trace_bytes = trace_blocks * block_bytes;
  options.capacity_bytes = config.capacity_bytes;
  if (config.device.kind != DeviceKind::kMagneticDisk && config.auto_capacity) {
    const std::uint32_t segment =
        config.device.erase_segment_bytes > 0 ? config.device.erase_segment_bytes : block_bytes;
    options.capacity_bytes = std::max(
        options.capacity_bytes,
        RequiredCapacityBytes(trace_bytes, config.flash_utilization, segment));
  }
  if (config.device.kind == DeviceKind::kMagneticDisk) {
    options.capacity_bytes = std::max(options.capacity_bytes, trace_bytes);
  }

  device_ = CreateDevice(config.device, options);
  device_->Preload(trace_blocks, config.flash_utilization, config.interleave_prefill);
}

double StorageSystem::TotalEnergyJoules() const {
  return device_->energy().total_joules() + dram_.energy().total_joules() +
         sram_.energy().total_joules();
}

SimTime StorageSystem::DeviceRead(SimTime now, const BlockRecord& rec) {
  if (!fault_on_) {
    return device_->Read(now, rec);
  }
  SimTime elapsed = 0;
  std::uint32_t attempt = 0;
  for (;;) {
    const IoResult r = device_->ReadOp(now + elapsed, rec);
    elapsed += r.time_us;
    if (r.ok()) {
      break;
    }
    if (attempt >= config_.fault.max_retries) {
      ++fault_stats_.io_failures;
      break;
    }
    ++attempt;
    ++fault_stats_.io_retries;
    // Exponential backoff: attempt k waits 2^(k-1) * retry_backoff.
    elapsed += config_.fault.retry_backoff_us * (SimTime{1} << (attempt - 1));
  }
  return elapsed;
}

SimTime StorageSystem::DeviceWrite(SimTime now, const BlockRecord& rec,
                                   WriteSource source) {
  if (!fault_on_) {
    return device_->Write(now, rec);
  }
  SimTime elapsed = 0;
  std::uint32_t attempt = 0;
  bool durable = false;
  for (;;) {
    const IoResult r = device_->WriteOp(now + elapsed, rec);
    elapsed += r.time_us;
    if (r.ok()) {
      durable = true;
      break;
    }
    if (attempt >= config_.fault.max_retries) {
      ++fault_stats_.io_failures;
      break;
    }
    ++attempt;
    ++fault_stats_.io_retries;
    elapsed += config_.fault.retry_backoff_us * (SimTime{1} << (attempt - 1));
  }
  if (durable) {
    // Track the in-flight window: if power fails before `completion_us` the
    // write was acknowledged but is not durable yet.
    pending_.push_back({now + elapsed, rec.lba, rec.block_count, source});
  }
  return elapsed;
}

SimTime StorageSystem::DrainSramTo(SimTime now) {
  SimTime completion = now;
  sram_.Drain(&ranges_scratch_);
  for (const BlockRange& range : ranges_scratch_) {
    BlockRecord rec;
    rec.time_us = now;
    rec.op = OpType::kWrite;
    rec.lba = range.lba;
    rec.block_count = range.count;
    // Flushed ranges come from arbitrary files; charge a random access.
    rec.file_id = ~std::uint32_t{0} - 1;
    completion = now + DeviceWrite(now, rec, WriteSource::kSramFlush);
  }
  return completion;
}

SimTime StorageSystem::PowerLoss(SimTime now) {
  AccountTo(now);
  ++fault_stats_.power_losses;

  // Triage in-flight device writes.  SRAM-flush data still sits safely in
  // the battery-backed buffer — put it back so it re-flushes after reboot;
  // everything else was acknowledged to the host and is gone.
  std::vector<PendingWrite> respill;
  for (const PendingWrite& w : pending_) {
    if (w.completion_us <= now) {
      continue;  // became durable before the lights went out
    }
    if (w.source == WriteSource::kSramFlush) {
      if (!sram_.Absorb(w.lba, w.count)) {
        // The buffer refilled since the flush was issued; write the range
        // straight out during recovery instead of dropping it.
        respill.push_back(w);
      }
    } else {
      fault_stats_.lost_acked_blocks += w.count;
    }
  }
  pending_.clear();

  // DRAM is volatile: dirty write-back blocks die with it, clean contents
  // just need re-fetching.
  fault_stats_.lost_acked_blocks += dram_.dirty_blocks();
  dram_.Clear();

  const double energy_before_j = TotalEnergyJoules();
  const SimTime recovery = device_->PowerLoss(now);
  for (const PendingWrite& w : respill) {
    BlockRecord rec;
    rec.time_us = now + recovery;
    rec.op = OpType::kWrite;
    rec.lba = w.lba;
    rec.block_count = w.count;
    rec.file_id = ~std::uint32_t{0} - 1;
    // Recovery replay; transient errors are not modeled on this path.
    device_->Write(now + recovery, rec);
  }
  fault_stats_.recovery_time_us += recovery;
  fault_stats_.recovery_energy_j += TotalEnergyJoules() - energy_before_j;

  if (config_.write_back_cache) {
    // The periodic-sync clock restarts with the reboot.
    next_cache_sync_us_ = now + recovery + config_.cache_sync_interval_us;
  }
  return recovery;
}

void StorageSystem::SyncDirtyCache(SimTime now) {
  dram_.DrainDirty(&ranges_scratch_);
  for (const BlockRange& range : ranges_scratch_) {
    BlockRecord rec;
    rec.time_us = now;
    rec.op = OpType::kWrite;
    rec.lba = range.lba;
    rec.block_count = range.count;
    rec.file_id = ~std::uint32_t{0} - 2;
    DeviceWrite(now, rec, WriteSource::kCacheSync);
  }
}

void StorageSystem::WriteBackEvicted(SimTime now, const std::vector<std::uint64_t>& blocks) {
  for (const std::uint64_t lba : blocks) {
    BlockRecord rec;
    rec.time_us = now;
    rec.op = OpType::kWrite;
    rec.lba = lba;
    rec.block_count = 1;
    rec.file_id = ~std::uint32_t{0} - 2;
    DeviceWrite(now, rec, WriteSource::kCacheSync);
  }
}

SimTime StorageSystem::Handle(const BlockRecord& rec) {
  AccountTo(rec.time_us);
  switch (rec.op) {
    case OpType::kRead:
      return HandleRead(rec);
    case OpType::kWrite:
      return HandleWrite(rec);
    case OpType::kErase:
      HandleErase(rec);
      return 0;
  }
  MOBISIM_CHECK(false && "unreachable");
  return 0;
}

SimTime StorageSystem::HandleRead(const BlockRecord& rec) {
  const SimTime now = rec.time_us;
  const std::uint64_t bytes = static_cast<std::uint64_t>(rec.block_count) * block_bytes_;

  if (dram_.ReadHit(rec.lba, rec.block_count)) {
    dram_.NoteTransfer(bytes);
    return dram_.AccessTime(bytes);
  }
  if (sram_.ContainsAll(rec.lba, rec.block_count)) {
    sram_.NoteTransfer(bytes);
    dram_.Insert(rec.lba, rec.block_count);
    return sram_.AccessTime(bytes);
  }

  SimTime start = now;
  if (sram_.ContainsAny(rec.lba, rec.block_count)) {
    // The device copy of some blocks is stale; flush before reading.
    start = DrainSramTo(now);
  }
  const SimTime response = (start - now) + DeviceRead(start, rec);
  evicted_scratch_.clear();
  dram_.Insert(rec.lba, rec.block_count, &evicted_scratch_);
  dram_.NoteTransfer(bytes);
  if (!evicted_scratch_.empty()) {
    WriteBackEvicted(now + response, evicted_scratch_);
  }
  return response;
}

SimTime StorageSystem::HandleWrite(const BlockRecord& rec) {
  const SimTime now = rec.time_us;
  const std::uint64_t bytes = static_cast<std::uint64_t>(rec.block_count) * block_bytes_;

  if (config_.write_back_cache && dram_.enabled() &&
      rec.block_count <= dram_.capacity_blocks()) {
    // Write-back: the write completes in DRAM; evicted dirty victims and the
    // periodic sync carry it to the device later.
    evicted_scratch_.clear();
    dram_.Insert(rec.lba, rec.block_count, &evicted_scratch_);
    dram_.MarkDirty(rec.lba, rec.block_count);
    dram_.NoteTransfer(bytes);
    const SimTime response = dram_.AccessTime(bytes);
    if (!evicted_scratch_.empty()) {
      WriteBackEvicted(now + response, evicted_scratch_);
    }
    return response;
  }

  // Write-through, write-allocate DRAM.
  dram_.Insert(rec.lba, rec.block_count);
  dram_.NoteTransfer(bytes);

  if (!sram_.enabled() || rec.block_count > sram_.capacity_blocks()) {
    // No buffer (or the write cannot possibly fit): synchronous device write.
    // Under fault injection the host ack still happens at issue time, so a
    // power loss inside this window loses the data (no battery backing).
    return DeviceWrite(now, rec, WriteSource::kHost);
  }

  SimTime response = 0;
  if (!sram_.Absorb(rec.lba, rec.block_count)) {
    // Buffer full: the write waits for the flush (this is the clustered-
    // writes penalty of section 5.5).
    const SimTime drained_at = DrainSramTo(now);
    response = drained_at - now;
    MOBISIM_CHECK(sram_.Absorb(rec.lba, rec.block_count));
  }
  sram_.NoteTransfer(bytes);
  response += sram_.AccessTime(bytes);

  // Write-behind: while the device is awake anyway, drain eagerly so the
  // buffer is empty when the disk next spins down.
  if (!device_->IsSleepingAt(now + response)) {
    DrainSramTo(now + response);
  }
  return response;
}

void StorageSystem::HandleErase(const BlockRecord& rec) {
  dram_.InvalidateRange(rec.lba, rec.block_count);
  sram_.Discard(rec.lba, rec.block_count);
  device_->Trim(rec.time_us, rec);
}

void StorageSystem::Finish(SimTime end) {
  // Leftover buffered writes ultimately reach the device.
  if (dram_.dirty_blocks() > 0) {
    SyncDirtyCache(std::max(end, device_->busy_until()));
    end = std::max(end, device_->busy_until());
  }
  if (sram_.dirty_blocks() > 0) {
    end = std::max(end, DrainSramTo(std::max(end, device_->busy_until())));
  }
  end = std::max(end, device_->busy_until());
  device_->Finish(end);
  dram_.Finish(end);
  sram_.Finish(end);
}

}  // namespace mobisim
