// Log-structured flash: the paper's flash memory card (Intel Series 2 class,
// DeviceKind::kFlashCard) and the parameterized NAND SSD tier
// (DeviceKind::kNandSsd) are one mechanism with two timing models.
//
// Writes are out-of-place into a log of erase segments managed by
// SegmentManager.  A cleaner reclaims the lowest-utilization segment by
// copying its live blocks into the active segment and erasing it; erasure
// takes a fixed time per segment regardless of how much data it reclaims.
// Cleaning runs in the background during idle time and is suspended while the
// host performs I/O (section 4.2); a host write that finds no erased space
// stalls until the in-progress cleaning finishes.  In on-demand mode
// (DeviceOptions::background_cleaning == false) the cleaner only runs,
// synchronously, when a write exhausts the free-space reserve.  The FtlPolicy
// decides victim selection and what each host write physically appends.
//
// Only how a service is timed differs between the kinds (FlashTiming):
//   - kFlashCard, serial timing: command overhead plus bytes at the datasheet
//     rate, one request at a time on a single queue.
//   - kNandSsd, striped timing after the unified NAND model of
//     Olivier/Boukhobza/Senn: host requests stripe page-by-page round-robin
//     across channel x die x plane units (consecutive pages land on distinct
//     channels); each unit runs asymmetric cell operations (tR, tPROG, tBERS)
//     on its own queue while page payloads serialize on the owning channel's
//     bus.  A write releases the controller once its payload has shipped, so
//     queued writes overlap their programs across dies -- throughput scaling
//     with channel count and its saturation (uFLIP's parallelism pattern).
//     The segment is the NAND erase block.
#ifndef MOBISIM_SRC_DEVICE_LOG_FLASH_DEVICE_H_
#define MOBISIM_SRC_DEVICE_LOG_FLASH_DEVICE_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/device/storage_device.h"
#include "src/flash/ftl_policy.h"
#include "src/flash/segment_manager.h"

namespace mobisim {

// Energy-meter modes of a log-structured flash device.
enum FlashMode : std::size_t { kFlashRead = 0, kFlashWrite, kFlashErase, kFlashClean, kFlashIdle };

// The costs the shared log machinery charges, supplied by the timing model.
struct FlashCosts {
  SimTime block_copy_us = 0;        // relocate one logical block during cleaning
  SimTime erase_us = 0;             // erase one segment
  SimTime mount_scan_us = 0;        // reboot pass rebuilding the block mapping
  double internal_read_kbps = 0.0;  // rate for policy merge reads
};

// How a log-structured flash device times its services.
class FlashTiming {
 public:
  virtual ~FlashTiming() = default;

  // Times a host read of `bytes` arriving at `now`: `overhead_us` of command
  // overhead, the transfer, and `merge_us` of policy merge reads.  Charges
  // the energy to `meter` and returns the completion time.
  virtual SimTime Read(SimTime now, SimTime overhead_us, std::uint64_t bytes,
                       SimTime merge_us, EnergyMeter* meter) = 0;
  // Times a write programming `bytes` that first waited `stall_us` for
  // synchronous cleaning.
  virtual SimTime Write(SimTime now, SimTime stall_us, SimTime overhead_us,
                        std::uint64_t bytes, SimTime merge_us, EnergyMeter* meter) = 0;
  // Power failed at `now`: in-flight work is abandoned and the device is
  // next free at `ready_at`.
  virtual void PowerLoss(SimTime now, SimTime ready_at) = 0;

  const FlashCosts& costs() const { return costs_; }

 protected:
  FlashCosts costs_;
};

// Striped NAND timing (kNandSsd); see the file comment.
class StripedNandTiming : public FlashTiming {
 public:
  StripedNandTiming(const DeviceSpec& spec, std::uint32_t block_bytes,
                    std::uint32_t segment_count);

  SimTime Read(SimTime now, SimTime overhead_us, std::uint64_t bytes, SimTime merge_us,
               EnergyMeter* meter) override;
  SimTime Write(SimTime now, SimTime stall_us, SimTime overhead_us, std::uint64_t bytes,
                SimTime merge_us, EnergyMeter* meter) override;
  void PowerLoss(SimTime now, SimTime ready_at) override;

  std::uint32_t units() const { return units_; }
  std::uint32_t channels() const { return channels_; }
  std::uint32_t ChannelOf(std::uint32_t unit) const { return unit % channels_; }
  // Pages a host transfer of `bytes` occupies, rounded up: a sub-page write
  // still programs a whole page (uFLIP's granularity knee).
  std::uint64_t PagesForBytes(std::uint64_t bytes) const;
  // Unit indices the next `pages`-page request would stripe to, in issue
  // order, without advancing the cursor.
  std::vector<std::uint32_t> StripeUnits(std::uint64_t pages) const;

 private:
  // Issues `pages` page operations starting no earlier than `issue`, striped
  // from the cursor; returns the completion time of the last page and
  // advances the cursor, unit/channel queues, and the energy meter.
  SimTime IssuePages(SimTime issue, std::uint64_t pages, bool is_read, EnergyMeter* meter);

  std::uint32_t channels_ = 1;
  std::uint32_t units_ = 1;
  std::uint32_t page_bytes_ = 1;
  SimTime read_page_us_ = 0;     // tR
  SimTime program_page_us_ = 0;  // tPROG
  SimTime page_xfer_us_ = 0;     // one page over the channel bus
  SimTime cmd_busy_ = 0;         // controller/command issue serialization
  std::vector<SimTime> unit_busy_;     // per-plane cell-operation queues
  std::vector<SimTime> channel_busy_;  // per-channel bus queues
  std::uint32_t stripe_cursor_ = 0;
};

class LogFlashDevice : public StorageDevice {
 public:
  LogFlashDevice(const DeviceSpec& spec, const DeviceOptions& options);

  // Utilization is measured against *usable* capacity, so a device with
  // factory bad blocks preloads to the same effective fullness.  With
  // `interleave` the filler is spread among the workload blocks so cleaned
  // segments carry cold data (the effect the paper attributes to high
  // utilization); otherwise it packs into its own, never-cleaned segments.
  void Preload(std::uint64_t trace_blocks, double utilization, bool interleave) override;

  void AdvanceTo(SimTime now) override;
  IoResult ReadOp(SimTime now, const BlockRecord& rec) override;
  IoResult WriteOp(SimTime now, const BlockRecord& rec) override;
  SimTime PowerLoss(SimTime now) override;
  void Trim(SimTime now, const BlockRecord& rec) override;
  void Finish(SimTime end) override;

  const EnergyMeter& energy() const override { return meter_; }
  const DeviceCounters& counters() const override;
  const DeviceSpec& spec() const override { return spec_; }
  SimTime busy_until() const override { return busy_until_; }
  std::span<const std::pair<SimTime, double>> capacity_events() const override {
    return capacity_events_;
  }

  const SegmentManager& segments() const { return segments_; }
  const FlashTiming& timing() const { return *timing_; }
  // The striping arithmetic of a kNandSsd device.
  const StripedNandTiming& nand_timing() const;

 private:
  struct CleanJob {
    bool active = false;
    std::uint32_t victim = SegmentManager::kNoSegment;
    SimTime copy_remaining_us = 0;
    SimTime erase_remaining_us = 0;
    std::uint32_t reserved_slots = 0;
  };

  // Free slots a host write may consume right now (free minus the cleaner's
  // copy reservation).
  std::uint64_t AvailableSlots() const;
  // Whether a one-block host write can proceed without waiting: it needs an
  // available slot and either room in the active segment or an erased
  // segment the cleaner does not need (section 4.2's single-active-segment
  // write discipline -- the source of high-utilization write stalls).
  bool CanAcceptHostBlock() const;
  // Starts a cleaning job if the erased-segment reserve is low and a victim
  // exists.  Returns true if a job is (now) active.  Inline: the write path
  // asks before every block, and only a low reserve needs the victim.
  bool MaybeStartCleanJob() {
    if (job_.active) {
      return true;
    }
    // Keep at least one segment erased at all times (section 4.2): trigger
    // as soon as the reserve is down to its last erased segment.
    return segments_.erased_segment_count() <= 1 && StartCleanJob();
  }
  // MaybeStartCleanJob's low-reserve half: picks the victim and starts the
  // job if its relocation fits.
  bool StartCleanJob();
  // Runs the active job to completion immediately, accounting its energy;
  // returns the time it consumed.
  SimTime FinishCleanJobNow();
  // Applies the job's state transition.
  void CompleteCleanJob();
  // Brings idle time, and the background cleaning it pays for, up to `t`.
  // Inline: every operation calls it, and after AdvanceTo the device is
  // usually accounted up to `t` already.
  void AccountUntil(SimTime t) {
    if (t > accounted_until_) {
      AccountIdle(t);
    }
  }
  void AccountIdle(SimTime t);
  SimTime ServiceRead(SimTime now, const BlockRecord& rec);
  SimTime ServiceWrite(SimTime now, const BlockRecord& rec);
  // A write attempt that fails before committing any block: it pays the
  // overhead and programming time but appends nothing to the log (no slots
  // consumed, no cleaning, no stall), so a retry replays the identical
  // mapping update.
  SimTime FailedWrite(SimTime now, const BlockRecord& rec);
  // Shared bookkeeping once a service completes at `done`.
  SimTime Complete(SimTime now, SimTime done, const BlockRecord& rec);
  SimTime OverheadUs(const BlockRecord& rec, double first_access_ms) const;
  double UsableFraction() const;

  DeviceSpec spec_;
  DeviceOptions options_;
  EnergyMeter meter_;
  mutable DeviceCounters counters_;
  // Declared before segments_: the manager scores victims through the
  // policy, so the policy must be constructed first and outlive it.
  std::unique_ptr<FtlPolicy> policy_;
  // True for policies with placement/read hooks (page-diff, fat-remap).  The
  // log-structured default skips every hook call so the hot path -- and its
  // floating-point arithmetic -- is the pre-FtlPolicy code, byte for byte.
  bool ftl_hooks_ = false;
  SegmentManager segments_;
  std::unique_ptr<FlashTiming> timing_;
  CleanJob job_;
  FaultInjector injector_;

  SimTime accounted_until_ = 0;
  SimTime busy_until_ = 0;  // last completion across all of the timing's queues
  std::uint32_t last_file_ = ~std::uint32_t{0};
  std::vector<std::pair<SimTime, double>> capacity_events_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_LOG_FLASH_DEVICE_H_
