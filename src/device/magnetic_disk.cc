#include "src/device/magnetic_disk.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace mobisim {

MagneticDisk::MagneticDisk(const DeviceSpec& spec, const DeviceOptions& options)
    : spec_(spec),
      options_(options),
      meter_({{"read", spec.read_w},
              {"write", spec.write_w},
              {"idle", spec.idle_w},
              {"sleep", spec.sleep_w},
              {"spinup", spec.spinup_w}}),
      injector_(options.fault) {
  MOBISIM_CHECK(spec.kind == DeviceKind::kMagneticDisk);
  ValidateDeviceSpec(spec, options);
  MOBISIM_CHECK(options.spin_down_after_us >= 0);
  threshold_us_ = options.spin_down_after_us;
}

const char* SpinDownPolicyName(SpinDownPolicy policy) {
  switch (policy) {
    case SpinDownPolicy::kFixedThreshold:
      return "fixed-threshold";
    case SpinDownPolicy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

bool MagneticDisk::IsSpinningAt(SimTime now) const {
  if (!spinning_) {
    return false;
  }
  return now < idle_since_ + threshold_us_;
}

void MagneticDisk::AdaptThreshold(SimTime sleep_duration_us) {
  if (options_.spin_down_policy != SpinDownPolicy::kAdaptive) {
    return;
  }
  // Break-even: a sleep shorter than this wasted more energy on the spin-up
  // than the sleep saved.
  const double spinup_j = spec_.spinup_w * spec_.spinup_ms / 1000.0;
  const double saved_per_sec = spec_.idle_w - spec_.sleep_w;
  const SimTime break_even_us =
      saved_per_sec > 0.0 ? UsFromSec(spinup_j / saved_per_sec) : kUsPerSec;
  if (sleep_duration_us < break_even_us) {
    threshold_us_ = std::min(options_.adaptive_max_us, threshold_us_ * 2);
  } else {
    threshold_us_ = std::max(options_.adaptive_min_us, threshold_us_ * 9 / 10);
  }
}

void MagneticDisk::AccountUntil(SimTime t) {
  if (t <= accounted_until_) {
    return;
  }
  if (spinning_) {
    const SimTime spin_down_at = idle_since_ + threshold_us_;
    if (t <= spin_down_at) {
      meter_.Accumulate(kModeIdle, t - accounted_until_);
    } else {
      if (spin_down_at > accounted_until_) {
        meter_.Accumulate(kModeIdle, spin_down_at - accounted_until_);
      }
      spinning_ = false;
      slept_since_ = std::max(spin_down_at, accounted_until_);
      meter_.Accumulate(kModeSleep, t - slept_since_);
    }
  } else {
    meter_.Accumulate(kModeSleep, t - accounted_until_);
  }
  accounted_until_ = t;
}

void MagneticDisk::AdvanceTo(SimTime now) { AccountUntil(now); }

MagneticDisk::Chs MagneticDisk::ToChs(std::uint64_t sector_index) const {
  const DiskGeometry& g = spec_.geometry;
  Chs chs;
  const std::uint64_t per_cylinder = static_cast<std::uint64_t>(g.heads) * g.sectors_per_track;
  chs.cylinder = static_cast<std::uint32_t>((sector_index / per_cylinder) % g.cylinders);
  chs.head = static_cast<std::uint32_t>((sector_index % per_cylinder) / g.sectors_per_track);
  chs.sector = static_cast<std::uint32_t>(sector_index % g.sectors_per_track);
  return chs;
}

SimTime MagneticDisk::MechanicalTimeUs(std::uint64_t sector, std::uint64_t sectors,
                                       std::uint32_t current_cylinder,
                                       SimTime start_time) const {
  const DiskGeometry& g = spec_.geometry;
  const Chs target = ToChs(sector);
  const std::uint32_t distance = target.cylinder > current_cylinder
                                     ? target.cylinder - current_cylinder
                                     : current_cylinder - target.cylinder;
  double time_ms = g.controller_ms + g.SeekMs(distance);

  // Rotational latency: the platter's angular position advances continuously
  // with wall-clock time; we wait for the target sector to come around after
  // the seek completes.
  const double rev_ms = g.revolution_ms();
  const double sector_ms = rev_ms / g.sectors_per_track;
  const double arrival_ms = MsFromUs(start_time) + time_ms;
  const double angle_now = std::fmod(arrival_ms, rev_ms) / rev_ms;  // [0, 1)
  const double angle_target = static_cast<double>(target.sector) / g.sectors_per_track;
  double wait = angle_target - angle_now;
  if (wait < 0.0) {
    wait += 1.0;
  }
  time_ms += wait * rev_ms;

  // Transfer, paying head switches and track-to-track seeks at boundaries.
  std::uint64_t remaining = sectors;
  Chs pos = target;
  while (remaining > 0) {
    const std::uint64_t in_track =
        std::min<std::uint64_t>(remaining, g.sectors_per_track - pos.sector);
    time_ms += static_cast<double>(in_track) * sector_ms;
    remaining -= in_track;
    if (remaining == 0) {
      break;
    }
    pos.sector = 0;
    if (pos.head + 1 < g.heads) {
      ++pos.head;
      time_ms += g.head_switch_ms;
    } else {
      pos.head = 0;
      pos.cylinder = (pos.cylinder + 1) % g.cylinders;
      time_ms += g.SeekMs(1);
    }
  }
  return UsFromMs(time_ms);
}

SimTime MagneticDisk::AverageCostUs(const BlockRecord& rec, std::uint64_t bytes,
                                    bool is_read) const {
  const double overhead_ms = rec.file_id == last_file_
                                 ? spec_.sequential_overhead_ms
                                 : (is_read ? spec_.read_overhead_ms : spec_.write_overhead_ms);
  return UsFromMs(overhead_ms) +
         TransferTimeUs(bytes, is_read ? spec_.read_kbps : spec_.write_kbps);
}

SimTime MagneticDisk::GeometryUs(const BlockRecord& rec, std::uint64_t bytes, SimTime t) {
  const DiskGeometry& g = spec_.geometry;
  const std::uint64_t first_sector = rec.lba * options_.block_bytes / g.sector_bytes;
  const std::uint64_t sectors = (bytes + g.sector_bytes - 1) / g.sector_bytes;
  const SimTime service = MechanicalTimeUs(first_sector % g.total_sectors(),
                                           std::max<std::uint64_t>(sectors, 1), head_cylinder_, t);
  head_cylinder_ = ToChs((first_sector + sectors - 1) % g.total_sectors()).cylinder;
  return service;
}

SimTime MagneticDisk::ServiceOp(SimTime now, const BlockRecord& rec, bool is_read) {
  AccountUntil(now);
  SimTime t = std::max(now, busy_until_);

  if (!spinning_) {
    AdaptThreshold(std::max(now, slept_since_) - slept_since_);
    const SimTime spinup_us = UsFromMs(spec_.spinup_ms);
    meter_.Accumulate(kModeSpinup, spinup_us);
    t += spinup_us;
    spinning_ = true;
    ++counters_.spinups;
    // The heads land wherever the drive parked them: the next access is a
    // random one regardless of file locality, and the geometry timing seeks
    // from the landing zone (cylinder 0 by convention).
    last_file_ = ~std::uint32_t{0};
    head_cylinder_ = 0;
  }

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  const SimTime service =
      options_.geometry_timing ? GeometryUs(rec, bytes, t) : AverageCostUs(rec, bytes, is_read);
  meter_.Accumulate(is_read ? kModeRead : kModeWrite, service);
  t += service;

  busy_until_ = t;
  accounted_until_ = std::max(accounted_until_, t);
  idle_since_ = t;
  last_file_ = rec.file_id;

  if (is_read) {
    ++counters_.reads;
    counters_.bytes_read += bytes;
  } else {
    ++counters_.writes;
    counters_.bytes_written += bytes;
  }
  return t - now;
}

// A disk has no logical state to corrupt, so a transiently-failed attempt is
// simply a full-cost service whose data did not make it; the error draw
// happens after the mechanics.
IoResult MagneticDisk::ReadOp(SimTime now, const BlockRecord& rec) {
  const SimTime t = ServiceOp(now, rec, /*is_read=*/true);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

IoResult MagneticDisk::WriteOp(SimTime now, const BlockRecord& rec) {
  const SimTime t = ServiceOp(now, rec, /*is_read=*/false);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

SimTime MagneticDisk::PowerLoss(SimTime now) {
  AccountUntil(now);
  // Power loss halts the platters instantly and abandons any queued work;
  // the next operation pays a normal spin-up, which parks the heads.
  if (spinning_) {
    spinning_ = false;
    slept_since_ = now;
  }
  busy_until_ = std::min(busy_until_, now);
  idle_since_ = std::min(idle_since_, now);
  return 0;
}

void MagneticDisk::Trim(SimTime now, const BlockRecord& rec) {
  // Deleting a file costs a disk nothing at this level of abstraction.
  (void)now;
  (void)rec;
}

void MagneticDisk::Finish(SimTime end) { AccountUntil(std::max(end, busy_until_)); }

}  // namespace mobisim
