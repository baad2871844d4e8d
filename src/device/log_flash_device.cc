#include "src/device/log_flash_device.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace mobisim {

namespace {

SegmentManagerConfig MakeSegmentConfig(const DeviceSpec& spec,
                                       const DeviceOptions& options,
                                       const FtlPolicy* policy) {
  SegmentManagerConfig seg;
  seg.capacity_bytes = options.capacity_bytes;
  seg.segment_bytes = spec.erase_segment_bytes;
  seg.block_bytes = options.block_bytes;
  seg.separate_cleaning_segment =
      policy->RouteCleaningSeparately(options.separate_cleaning_segment);
  seg.cleaning_policy = options.cleaning_policy;
  seg.policy = policy;
  return seg;
}

// Serial card timing (kFlashCard): overhead plus bytes at the datasheet rate
// on one queue; cleaning copies at the internal rates when the spec has them.
class SerialCardTiming : public FlashTiming {
 public:
  SerialCardTiming(const DeviceSpec& spec, std::uint32_t block_bytes,
                   std::uint32_t segment_count)
      : read_kbps_(spec.read_kbps), write_kbps_(spec.write_kbps) {
    const double copy_read_kbps =
        spec.internal_read_kbps > 0.0 ? spec.internal_read_kbps : spec.read_kbps;
    const double copy_write_kbps =
        spec.internal_write_kbps > 0.0 ? spec.internal_write_kbps : spec.write_kbps;
    costs_.internal_read_kbps = copy_read_kbps;
    costs_.block_copy_us = TransferTimeUs(block_bytes, copy_read_kbps) +
                           TransferTimeUs(block_bytes, copy_write_kbps);
    costs_.erase_us = UsFromMs(spec.erase_ms_per_segment);
    // Reboot rescans one summary block per segment.
    costs_.mount_scan_us = static_cast<SimTime>(segment_count) *
                           TransferTimeUs(block_bytes, copy_read_kbps);
  }

  SimTime Read(SimTime now, SimTime overhead_us, std::uint64_t bytes, SimTime merge_us,
               EnergyMeter* meter) override {
    const SimTime service = overhead_us + TransferTimeUs(bytes, read_kbps_) + merge_us;
    meter->Accumulate(kFlashRead, service);
    busy_until_ = std::max(now, busy_until_) + service;
    return busy_until_;
  }

  SimTime Write(SimTime now, SimTime stall_us, SimTime overhead_us, std::uint64_t bytes,
                SimTime merge_us, EnergyMeter* meter) override {
    const SimTime service = overhead_us + TransferTimeUs(bytes, write_kbps_);
    meter->Accumulate(kFlashWrite, service);
    if (merge_us > 0) {
      // Diff-chain merges read the base page and its diffs back internally
      // before reprogramming.
      meter->Accumulate(kFlashRead, merge_us);
    }
    busy_until_ = std::max(now, busy_until_) + stall_us + service + merge_us;
    return busy_until_;
  }

  void PowerLoss(SimTime /*now*/, SimTime ready_at) override { busy_until_ = ready_at; }

 private:
  double read_kbps_;
  double write_kbps_;
  SimTime busy_until_ = 0;
};

}  // namespace

// ---- Striped NAND timing ----------------------------------------------------

StripedNandTiming::StripedNandTiming(const DeviceSpec& spec, std::uint32_t block_bytes,
                                     std::uint32_t segment_count)
    : channels_(spec.nand.channels),
      units_(spec.nand.units()),
      page_bytes_(spec.nand.page_bytes),
      read_page_us_(static_cast<SimTime>(std::llround(spec.nand.read_page_us))),
      program_page_us_(static_cast<SimTime>(std::llround(spec.nand.program_page_us))),
      unit_busy_(units_, 0),
      channel_busy_(channels_, 0) {
  const double channel_kbps = spec.nand.channel_mbps * 1024.0;
  page_xfer_us_ = TransferTimeUs(page_bytes_, channel_kbps);
  costs_.internal_read_kbps =
      spec.internal_read_kbps > 0.0 ? spec.internal_read_kbps : channel_kbps;
  // GC relocates one logical block via internal copyback: read the page(s)
  // holding it and reprogram them, no bus crossing.
  costs_.block_copy_us = static_cast<SimTime>(PagesForBytes(block_bytes)) *
                         (read_page_us_ + program_page_us_);
  costs_.erase_us = UsFromMs(spec.nand.erase_block_ms);
  // Reboot reads one summary page per erase block.
  costs_.mount_scan_us =
      static_cast<SimTime>(segment_count) * (read_page_us_ + page_xfer_us_);
}

std::uint64_t StripedNandTiming::PagesForBytes(std::uint64_t bytes) const {
  return (bytes + page_bytes_ - 1) / page_bytes_;
}

std::vector<std::uint32_t> StripedNandTiming::StripeUnits(std::uint64_t pages) const {
  std::vector<std::uint32_t> out;
  out.reserve(pages);
  for (std::uint64_t p = 0; p < pages; ++p) {
    out.push_back(static_cast<std::uint32_t>((stripe_cursor_ + p) % units_));
  }
  return out;
}

SimTime StripedNandTiming::IssuePages(SimTime issue, std::uint64_t pages, bool is_read,
                                      EnergyMeter* meter) {
  SimTime done = issue;
  SimTime bus_release = issue;
  for (std::uint64_t p = 0; p < pages; ++p) {
    const std::uint32_t u = static_cast<std::uint32_t>((stripe_cursor_ + p) % units_);
    const std::uint32_t c = u % channels_;
    SimTime end;
    if (is_read) {
      // Cell read on the plane, then the payload crosses the channel bus.
      const SimTime cell_start = std::max(issue, unit_busy_[u]);
      const SimTime cell_end = cell_start + read_page_us_;
      unit_busy_[u] = cell_end;
      const SimTime bus_start = std::max(cell_end, channel_busy_[c]);
      end = bus_start + page_xfer_us_;
      channel_busy_[c] = end;
      meter->Accumulate(kFlashRead, read_page_us_ + page_xfer_us_);
    } else {
      // Payload ships over the channel bus, then the plane programs it.
      const SimTime bus_start = std::max(issue, channel_busy_[c]);
      const SimTime bus_end = bus_start + page_xfer_us_;
      channel_busy_[c] = bus_end;
      bus_release = std::max(bus_release, bus_end);
      const SimTime prog_start = std::max(bus_end, unit_busy_[u]);
      end = prog_start + program_page_us_;
      unit_busy_[u] = end;
      meter->Accumulate(kFlashWrite, program_page_us_ + page_xfer_us_);
    }
    done = std::max(done, end);
  }
  stripe_cursor_ = static_cast<std::uint32_t>((stripe_cursor_ + pages) % units_);
  // Writes release the controller once the payload has shipped, so queued
  // writes pipeline their programs across dies; reads hold it only for the
  // command issue (the per-channel bus queues serialize the returns).
  cmd_busy_ = std::max(cmd_busy_, is_read ? issue : bus_release);
  return done;
}

SimTime StripedNandTiming::Read(SimTime now, SimTime overhead_us, std::uint64_t bytes,
                                SimTime merge_us, EnergyMeter* meter) {
  meter->Accumulate(kFlashRead, overhead_us);
  const SimTime issue = std::max(now, cmd_busy_) + overhead_us;
  cmd_busy_ = issue;
  SimTime done = IssuePages(issue, PagesForBytes(bytes), /*is_read=*/true, meter);
  if (merge_us > 0) {
    meter->Accumulate(kFlashRead, merge_us);
    done += merge_us;
  }
  return done;
}

SimTime StripedNandTiming::Write(SimTime now, SimTime stall_us, SimTime overhead_us,
                                 std::uint64_t bytes, SimTime merge_us, EnergyMeter* meter) {
  meter->Accumulate(kFlashWrite, overhead_us);
  // A synchronous cleaning stall blocks the whole device before the command
  // can even issue.
  const SimTime issue = std::max(now, cmd_busy_) + stall_us + overhead_us;
  cmd_busy_ = issue;
  SimTime done = IssuePages(issue, PagesForBytes(bytes), /*is_read=*/false, meter);
  if (merge_us > 0) {
    meter->Accumulate(kFlashRead, merge_us);
    done += merge_us;
  }
  return done;
}

void StripedNandTiming::PowerLoss(SimTime now, SimTime ready_at) {
  // In-flight cell operations and transfers are abandoned.
  for (SimTime& t : unit_busy_) {
    t = std::min(t, now);
  }
  for (SimTime& t : channel_busy_) {
    t = std::min(t, now);
  }
  cmd_busy_ = ready_at;
}

// ---- The log-structured device -----------------------------------------------

LogFlashDevice::LogFlashDevice(const DeviceSpec& spec, const DeviceOptions& options)
    : spec_(spec),
      options_(options),
      meter_({{"read", spec.read_w},
              {"write", spec.write_w},
              {"erase", spec.erase_w},
              {"clean", spec.write_w},
              {"idle", spec.idle_w}}),
      policy_(MakeFtlPolicy(options.ftl_policy, options.cleaning_policy)),
      ftl_hooks_(policy_->kind() != FtlPolicyKind::kLogStructured),
      segments_(MakeSegmentConfig(spec, options, policy_.get())),
      injector_(options.fault) {
  MOBISIM_CHECK(spec.kind == DeviceKind::kFlashCard || spec.kind == DeviceKind::kNandSsd);
  ValidateDeviceSpec(spec, options);
  if (spec.kind == DeviceKind::kNandSsd) {
    timing_ = std::make_unique<StripedNandTiming>(spec, options.block_bytes,
                                                  segments_.segment_count());
  } else {
    timing_ = std::make_unique<SerialCardTiming>(spec, options.block_bytes,
                                                 segments_.segment_count());
  }
  // Keep the device's own slack arithmetic consistent with the routing the
  // policy chose for the manager.
  options_.separate_cleaning_segment =
      policy_->RouteCleaningSeparately(options.separate_cleaning_segment);

  const FaultConfig& fault = options.fault;
  if (fault.wear_out) {
    // Sample each erase block's cycle budget around the datasheet endurance.
    Rng wear_rng(fault.seed, fault_streams::kWearBudget);
    const double mean = std::max(
        1.0, static_cast<double>(spec.endurance_cycles) * fault.endurance_scale);
    for (std::uint32_t s = 0; s < segments_.segment_count(); ++s) {
      const double draw = wear_rng.Normal(mean, mean * fault.endurance_spread);
      segments_.SetEnduranceBudget(
          s, draw < 1.0 ? 1u : static_cast<std::uint32_t>(draw));
    }
  }
  if (fault.bad_block_rate > 0.0) {
    // Factory bad blocks, capped so the device can still open active
    // segments and run the cleaner.
    Rng bad_rng(fault.seed, fault_streams::kBadBlocks);
    constexpr std::uint32_t kMinGoodSegments = 4;
    std::uint32_t good = segments_.segment_count();
    for (std::uint32_t s = 0; s < segments_.segment_count() && good > kMinGoodSegments;
         ++s) {
      if (bad_rng.Chance(fault.bad_block_rate)) {
        segments_.RetireSegment(s);
        --good;
      }
    }
    if (segments_.bad_segment_count() > 0) {
      capacity_events_.emplace_back(0, UsableFraction());
    }
  }
}

const StripedNandTiming& LogFlashDevice::nand_timing() const {
  MOBISIM_CHECK(spec_.kind == DeviceKind::kNandSsd);
  return static_cast<const StripedNandTiming&>(*timing_);
}

double LogFlashDevice::UsableFraction() const {
  return static_cast<double>(segments_.usable_blocks()) /
         static_cast<double>(segments_.total_blocks());
}

void LogFlashDevice::Preload(std::uint64_t trace_blocks, double utilization,
                             bool interleave) {
  MOBISIM_CHECK(utilization > 0.0 && utilization < 1.0);
  const std::uint64_t target_live =
      static_cast<std::uint64_t>(utilization * static_cast<double>(segments_.usable_blocks()));
  MOBISIM_CHECK(trace_blocks <= target_live);
  // Leave the cleaner room to operate: two free segments, three when
  // cleaning copies get their own destination segment.
  const std::uint64_t slack_segments = options_.separate_cleaning_segment ? 3 : 2;
  MOBISIM_CHECK(target_live + slack_segments * segments_.blocks_per_segment() <=
                segments_.usable_blocks());
  const std::uint64_t filler = target_live - trace_blocks;
  if (ftl_hooks_) {
    // Policies with metadata pages (diff pages, map pages) claim lbas from
    // the never-accessed logical window above the preloaded region.
    policy_->AttachMetaWindow(target_live, segments_.total_blocks() - target_live,
                              options_.block_bytes);
  }

  if (!interleave || filler == 0 || trace_blocks == 0) {
    segments_.Preload(0, trace_blocks);
    segments_.Preload(trace_blocks, filler);
    return;
  }
  // Interleave filler among workload blocks with an integer error
  // accumulator so each cleaned segment carries its share of cold data.
  // The order is handed over a segment's worth at a time.
  std::uint64_t next_trace = 0;
  std::uint64_t next_filler = trace_blocks;
  std::int64_t error = 0;
  const std::int64_t t = static_cast<std::int64_t>(trace_blocks);
  const std::int64_t f = static_cast<std::int64_t>(filler);
  std::vector<std::uint64_t> order;
  order.reserve(segments_.blocks_per_segment());
  while (next_trace < trace_blocks || next_filler < trace_blocks + filler) {
    if (next_filler >= trace_blocks + filler ||
        (next_trace < trace_blocks && error < t)) {
      order.push_back(next_trace++);
      error += f;
    } else {
      order.push_back(next_filler++);
      error -= t;
    }
    if (order.size() == segments_.blocks_per_segment()) {
      segments_.Preload(order);
      order.clear();
    }
  }
  segments_.Preload(order);
}

std::uint64_t LogFlashDevice::AvailableSlots() const {
  const std::uint64_t free = segments_.free_slots();
  return free > job_.reserved_slots ? free - job_.reserved_slots : 0;
}

bool LogFlashDevice::CanAcceptHostBlock() const {
  if (AvailableSlots() == 0) {
    return false;
  }
  if (segments_.active_free_slots() > 0) {
    return true;
  }
  // The active segment is full: writing means opening a fresh one.  The
  // device keeps one erased segment aside for the cleaner, so the host may
  // only take a segment when two are erased -- or when nothing is cleanable
  // at all (the device will never need the reserve).
  if (segments_.erased_segment_count() >= 2) {
    return true;
  }
  return segments_.erased_segment_count() >= 1 && !job_.active &&
         segments_.PickVictim() == SegmentManager::kNoSegment;
}

bool LogFlashDevice::StartCleanJob() {
  const std::uint32_t victim = segments_.PickVictim();
  if (victim == SegmentManager::kNoSegment) {
    return false;
  }
  const std::uint32_t live = segments_.VictimLiveBlocks(victim);
  if (segments_.free_slots() < live) {
    return false;  // not enough room to relocate the victim's live data yet
  }
  if (segments_.erased_segment_count() == 0 && segments_.cleaning_free_slots() < live) {
    return false;  // relocation would need a fresh segment that does not exist
  }
  job_.active = true;
  job_.victim = victim;
  job_.copy_remaining_us = static_cast<SimTime>(live) * timing_->costs().block_copy_us;
  job_.erase_remaining_us = timing_->costs().erase_us;
  job_.reserved_slots = live;
  ++counters_.clean_jobs;
  return true;
}

void LogFlashDevice::CompleteCleanJob() {
  MOBISIM_DCHECK(job_.active);
  const std::uint32_t victim = job_.victim;
  const std::uint32_t copied = segments_.CleanSegment(victim);
  counters_.blocks_copied += copied;
  ++counters_.segment_erases;
  job_ = CleanJob{};
  if (segments_.segment_is_bad(victim)) {
    // The victim hit its wear budget: its live data was just remapped away
    // and the device shrank by one segment.
    counters_.remapped_blocks += copied;
    capacity_events_.emplace_back(accounted_until_, UsableFraction());
  }
}

SimTime LogFlashDevice::FinishCleanJobNow() {
  MOBISIM_DCHECK(job_.active);
  const SimTime copy = job_.copy_remaining_us;
  const SimTime erase = job_.erase_remaining_us;
  meter_.Accumulate(kFlashClean, copy);
  meter_.Accumulate(kFlashErase, erase);
  CompleteCleanJob();
  return copy + erase;
}

void LogFlashDevice::AccountIdle(SimTime t) {
  SimTime available = t - accounted_until_;
  // Background cleaning consumes idle time; keep starting follow-up jobs
  // while time remains and the erased reserve is low.
  while (available > 0 && options_.background_cleaning && MaybeStartCleanJob()) {
    if (job_.copy_remaining_us > 0) {
      const SimTime spent = std::min(available, job_.copy_remaining_us);
      meter_.Accumulate(kFlashClean, spent);
      job_.copy_remaining_us -= spent;
      available -= spent;
    }
    if (available > 0 && job_.copy_remaining_us == 0 && job_.erase_remaining_us > 0) {
      const SimTime spent = std::min(available, job_.erase_remaining_us);
      meter_.Accumulate(kFlashErase, spent);
      job_.erase_remaining_us -= spent;
      available -= spent;
    }
    if (job_.copy_remaining_us == 0 && job_.erase_remaining_us == 0) {
      CompleteCleanJob();
    } else {
      break;  // ran out of idle time mid-job
    }
  }
  meter_.Accumulate(kFlashIdle, available);
  accounted_until_ = t;
}

void LogFlashDevice::AdvanceTo(SimTime now) { AccountUntil(now); }

SimTime LogFlashDevice::OverheadUs(const BlockRecord& rec, double first_access_ms) const {
  return UsFromMs(rec.file_id == last_file_ ? spec_.sequential_overhead_ms : first_access_ms);
}

SimTime LogFlashDevice::Complete(SimTime now, SimTime done, const BlockRecord& rec) {
  busy_until_ = std::max(busy_until_, done);
  accounted_until_ = std::max(accounted_until_, busy_until_);
  last_file_ = rec.file_id;
  return done - now;
}

SimTime LogFlashDevice::ServiceRead(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  std::uint64_t extra = 0;
  if (ftl_hooks_) {
    // Merge-on-read: fold any outstanding policy state (page diffs) into the
    // returned block, charged at the internal read rate.
    for (std::uint32_t i = 0; i < rec.block_count; ++i) {
      extra += policy_->ExtraReadBytes(rec.lba + i);
    }
  }
  const SimTime done =
      timing_->Read(now, OverheadUs(rec, spec_.read_overhead_ms), bytes,
                    TransferTimeUs(extra, timing_->costs().internal_read_kbps), &meter_);
  ++counters_.reads;
  counters_.bytes_read += bytes;
  return Complete(now, done, rec);
}

SimTime LogFlashDevice::ServiceWrite(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  SimTime stall = 0;
  std::uint64_t programmed = 0;
  std::uint64_t merge_reads = 0;
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    // The policy decides what each host block physically does: which log
    // appends happen (the block, a diff page, a map page -- possibly none)
    // and what transfer volumes to charge.  Without hooks the identity plan
    // is built inline, so the log-structured path makes no virtual call.
    const std::uint64_t lba = rec.lba + i;
    HostWritePlan plan;
    if (ftl_hooks_) {
      plan = policy_->PlanHostWrite(lba, segments_.IsMapped(lba), options_.block_bytes);
    } else {
      plan.appends[0] = lba;
      plan.append_count = 1;
      plan.programmed_bytes = options_.block_bytes;
    }
    programmed += plan.programmed_bytes;
    merge_reads += plan.merge_read_bytes;
    for (std::uint32_t k = 0; k < plan.append_count; ++k) {
      if (options_.background_cleaning) {
        // Bursts can arrive with no idle time in between; the job must be
        // *started* here (reserving relocation room) even though it only
        // makes progress during idle periods or synchronous stalls.
        MaybeStartCleanJob();
      }
      while (!CanAcceptHostBlock()) {
        // No erased space for this block: the write waits for cleaning to
        // yield an erased segment.  In on-demand mode this is where cleaning
        // happens at all.
        const bool job_ready = MaybeStartCleanJob();
        MOBISIM_CHECK(job_ready &&
                      "flash device wedged: no free space and nothing cleanable");
        stall += FinishCleanJobNow();
      }
      segments_.WriteBlock(plan.appends[k]);
    }
  }
  if (!options_.background_cleaning) {
    // On-demand mode also replenishes the reserve synchronously once the
    // erased reserve is exhausted, charging the triggering write.
    while (segments_.erased_segment_count() <= 1 && MaybeStartCleanJob()) {
      stall += FinishCleanJobNow();
    }
  }
  if (stall > 0) {
    ++counters_.write_stalls;
    counters_.stall_time_us += stall;
  }
  const SimTime done = timing_->Write(
      now, stall, OverheadUs(rec, spec_.write_overhead_ms), programmed,
      TransferTimeUs(merge_reads, timing_->costs().internal_read_kbps), &meter_);
  ++counters_.writes;
  counters_.bytes_written += static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  return Complete(now, done, rec);
}

SimTime LogFlashDevice::FailedWrite(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  const SimTime done =
      timing_->Write(now, 0, OverheadUs(rec, spec_.write_overhead_ms), bytes, 0, &meter_);
  ++counters_.writes;
  counters_.bytes_written += bytes;
  return Complete(now, done, rec);
}

IoResult LogFlashDevice::ReadOp(SimTime now, const BlockRecord& rec) {
  // Reads mutate no logical state, so the error draw can follow the service.
  const SimTime t = ServiceRead(now, rec);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

IoResult LogFlashDevice::WriteOp(SimTime now, const BlockRecord& rec) {
  // Writes mutate the log, so the error is drawn *before* committing.
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {FailedWrite(now, rec), IoStatus::kTransientError};
  }
  return {ServiceWrite(now, rec), IoStatus::kOk};
}

SimTime LogFlashDevice::PowerLoss(SimTime now) {
  AccountUntil(now);
  // Reboot rescans the segment summaries to rebuild the mapping.
  const FlashCosts& costs = timing_->costs();
  SimTime recovery = costs.mount_scan_us;
  meter_.Accumulate(kFlashRead, costs.mount_scan_us);
  if (job_.active) {
    if (job_.copy_remaining_us == 0) {
      // Every live copy was durable before power failed; only the erase was
      // interrupted.  Recovery re-issues it and commits the job.
      recovery += costs.erase_us;
      meter_.Accumulate(kFlashErase, costs.erase_us);
      CompleteCleanJob();
    } else {
      // Interrupted mid-copy.  Partial copies are superseded out-of-place
      // data the mount scan ignores; the mapping is unchanged, so cleaning
      // simply replays the victim later.
      job_ = CleanJob{};
    }
  }
  busy_until_ = now + recovery;
  timing_->PowerLoss(now, busy_until_);
  accounted_until_ = std::max(accounted_until_, busy_until_);
  last_file_ = ~std::uint32_t{0};
  return recovery;
}

void LogFlashDevice::Trim(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    if (ftl_hooks_) {
      policy_->OnTrim(rec.lba + i);
    }
    segments_.TrimBlock(rec.lba + i);
  }
}

void LogFlashDevice::Finish(SimTime end) { AccountUntil(std::max(end, busy_until_)); }

const DeviceCounters& LogFlashDevice::counters() const {
  counters_.segment_erase_stats = segments_.EraseCountStats();
  counters_.bad_segments = segments_.bad_segment_count();
  counters_.usable_blocks = segments_.usable_blocks();
  counters_.physical_blocks = segments_.total_blocks();
  const FtlCounters& ftl = policy_->counters();
  counters_.diff_writes = ftl.diff_writes;
  counters_.diff_merges = ftl.diff_merges;
  counters_.diff_merge_reads = ftl.diff_merge_reads;
  counters_.remap_table_hits = ftl.remap_table_hits;
  counters_.remap_table_wraps = ftl.remap_table_wraps;
  return counters_;
}

}  // namespace mobisim
