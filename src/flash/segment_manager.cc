#include "src/flash/segment_manager.h"

#include <algorithm>
#include <bit>

#include "src/flash/ftl_policy.h"
#include "src/util/check.h"

namespace mobisim {

// CleaningPolicyName lives in ftl_policy.cc, next to its strict inverse, so
// there is exactly one policy-name table.

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t WordsFor(std::size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

void SetBit(std::uint64_t* words, std::uint32_t i) {
  words[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

void ClearBit(std::uint64_t* words, std::uint32_t i) {
  words[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

bool TestBit(const std::uint64_t* words, std::uint32_t i) {
  return ((words[i / kWordBits] >> (i % kWordBits)) & 1u) != 0;
}

// Lowest set bit among `count` words, or SegmentManager::kNoSegment.
std::uint32_t FirstSetBit(const std::uint64_t* words, std::size_t count) {
  for (std::size_t w = 0; w < count; ++w) {
    if (words[w] != 0) {
      return static_cast<std::uint32_t>(w * kWordBits +
                                        static_cast<std::size_t>(std::countr_zero(words[w])));
    }
  }
  return SegmentManager::kNoSegment;
}

}  // namespace

SegmentManager::SegmentManager(const SegmentManagerConfig& config) : config_(config) {
  MOBISIM_CHECK(config.block_bytes > 0);
  MOBISIM_CHECK(config.segment_bytes >= config.block_bytes);
  MOBISIM_CHECK(config.segment_bytes % config.block_bytes == 0);
  MOBISIM_CHECK(config.capacity_bytes >= config.segment_bytes);
  blocks_per_segment_ = config.segment_bytes / config.block_bytes;
  const std::uint32_t segment_count =
      static_cast<std::uint32_t>(config.capacity_bytes / config.segment_bytes);
  MOBISIM_CHECK(segment_count >= 2);
  segments_.resize(segment_count);
  const std::uint64_t logical =
      config.logical_blocks > 0
          ? config.logical_blocks
          : static_cast<std::uint64_t>(segment_count) * blocks_per_segment_;
  MOBISIM_CHECK(logical >= static_cast<std::uint64_t>(segment_count) * blocks_per_segment_);
  // The mapping and the slot table hold 4-byte slots and lbas, with ~0 as
  // the empty marker; the physical slots are at most the logical blocks.
  MOBISIM_CHECK(logical < kNoLba && "logical space too large for 32-bit block numbers");
  block_slot_.assign(logical, kNoSlot);
  slot_lba_.assign(total_blocks(), kNoLba);
  free_slots_ = total_blocks();
  erased_segments_ = segment_count;
  erased_bits_.assign(WordsFor(segment_count), 0);
  for (std::uint32_t i = 0; i < segment_count; ++i) {
    SetBit(erased_bits_.data(), i);
  }
  if (config.policy != nullptr) {
    policy_ = config.policy;
  } else {
    owned_policy_ = std::make_unique<LogStructuredFtl>(config.cleaning_policy);
    policy_ = owned_policy_.get();
  }
  order_ = policy_->victim_order();
  if (order_ == VictimOrder::kFewestLive) {
    bucket_words_ = WordsFor(segment_count);
    bucket_bits_.assign(bucket_words_ * blocks_per_segment_, 0);
    bucket_sizes_.assign(blocks_per_segment_, 0);
  }
}

SegmentManager::~SegmentManager() = default;

std::uint64_t SegmentManager::total_blocks() const {
  return static_cast<std::uint64_t>(segments_.size()) * blocks_per_segment_;
}

double SegmentManager::utilization() const {
  return static_cast<double>(live_blocks_) / static_cast<double>(total_blocks());
}

std::uint32_t SegmentManager::cleaning_free_slots() const {
  if (!config_.separate_cleaning_segment) {
    return active_free_slots();
  }
  if (cleaning_segment_ == kNoSegment) {
    return 0;
  }
  return blocks_per_segment_ - segments_[cleaning_segment_].slots_used;
}

std::uint32_t SegmentManager::segment_live_count(std::uint32_t segment) const {
  MOBISIM_DCHECK(segment < segments_.size());
  return segments_[segment].live;
}

std::uint32_t SegmentManager::segment_erase_count(std::uint32_t segment) const {
  MOBISIM_DCHECK(segment < segments_.size());
  return segments_[segment].erase_count;
}

std::uint64_t SegmentManager::segment_sequence(std::uint32_t segment) const {
  MOBISIM_CHECK(segment < segments_.size());
  return segments_[segment].sequence;
}

void SegmentManager::OpenNewActiveSegment(std::uint32_t& slot) {
  const std::uint32_t i = FirstSetBit(erased_bits_.data(), erased_bits_.size());
  MOBISIM_CHECK(i != kNoSegment && "no erased segment available for the active role");
  MOBISIM_CHECK(erased_segments_ > 0);
  ClearBit(erased_bits_.data(), i);
  --erased_segments_;
  slot = i;
}

void SegmentManager::IndexInsert(std::uint32_t segment) {
  const Segment& seg = segments_[segment];
  MOBISIM_DCHECK(seg.slots_used == blocks_per_segment_ && seg.live < blocks_per_segment_);
  if (order_ == VictimOrder::kFewestLive) {
    SetBit(bucket_bits_.data() + seg.live * bucket_words_, segment);
    ++bucket_sizes_[seg.live];
    bucket_floor_ = std::min(bucket_floor_, seg.live);
  } else if (order_ == VictimOrder::kOldestFilled) {
    fill_heap_.push_back({seg.sequence, segment});
    std::push_heap(fill_heap_.begin(), fill_heap_.end(), LaterFilled);
  }
}

void SegmentManager::BucketErase(std::uint32_t segment, std::uint32_t live) {
  ClearBit(bucket_bits_.data() + live * bucket_words_, segment);
  --bucket_sizes_[live];
}

void SegmentManager::DropStaleFillEntries() {
  while (!fill_heap_.empty() && !FillEntryLive(fill_heap_.front())) {
    std::pop_heap(fill_heap_.begin(), fill_heap_.end(), LaterFilled);
    fill_heap_.pop_back();
  }
  // Stale entries below the top are those of segments cleaned out of fill
  // order (a victim chosen before an older segment became a candidate).
  // Rebuild once they outnumber the segments, so the heap stays bounded.
  if (fill_heap_.size() > 2 * segments_.size()) {
    std::erase_if(fill_heap_, [this](const FillEntry& e) { return !FillEntryLive(e); });
    std::make_heap(fill_heap_.begin(), fill_heap_.end(), LaterFilled);
  }
}

void SegmentManager::Seal(std::uint32_t& role) {
  const std::uint32_t target = role;
  Segment& seg = segments_[target];
  // A full segment is no longer "active" and becomes a cleaning candidate
  // like any other once it holds an invalid slot.
  seg.sequence = ++fill_sequence_;
  role = kNoSegment;
  if (seg.live < blocks_per_segment_) {
    IndexInsert(target);
  }
}

void SegmentManager::InvalidateBlock(std::uint64_t lba) {
  const std::uint32_t slot = block_slot_[lba];
  if (slot == kNoSlot) {
    return;
  }
  const std::uint32_t seg_idx = slot / blocks_per_segment_;
  Segment& seg = segments_[seg_idx];
  MOBISIM_DCHECK(seg.live > 0);
  --seg.live;
  --live_blocks_;
  block_slot_[lba] = kNoSlot;
  if (seg.slots_used == blocks_per_segment_) {
    // A sealed segment: the slot can never be copied again, its live count
    // is its bucket, and its first invalid slot makes it a candidate.  (A
    // slot superseded while its segment is open keeps its lba: the block may
    // be appended to the same segment again, and CleanSegment copies it at
    // its first slot.)
    slot_lba_[slot] = kNoLba;
    if (order_ == VictimOrder::kFewestLive) {
      if (seg.live + 1 < blocks_per_segment_) {
        BucketErase(seg_idx, seg.live + 1);
      }
      IndexInsert(seg_idx);
    } else if (seg.live + 1 == blocks_per_segment_) {
      IndexInsert(seg_idx);
    }
  }
}

template <typename NextLba>
void SegmentManager::AppendRun(std::uint32_t& role, std::uint64_t count, NextLba next_lba) {
  MOBISIM_CHECK(free_slots_ >= count);
  while (count > 0) {
    if (role == kNoSegment) {
      OpenNewActiveSegment(role);
    }
    Segment& seg = segments_[role];
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count, blocks_per_segment_ - seg.slots_used));
    const std::uint32_t first = role * blocks_per_segment_ + seg.slots_used;
    for (std::uint32_t slot = first; slot < first + n; ++slot) {
      const std::uint32_t lba = next_lba();
      slot_lba_[slot] = lba;
      block_slot_[lba] = slot;
    }
    seg.slots_used += n;
    seg.live += n;
    free_slots_ -= n;
    live_blocks_ += n;
    count -= n;
    if (seg.slots_used == blocks_per_segment_) {
      Seal(role);
    }
  }
}

void SegmentManager::Preload(std::uint64_t lba, std::uint64_t count) {
  PreloadEach(count, [lba]() mutable { return lba++; });
}

void SegmentManager::Preload(std::span<const std::uint64_t> lbas) {
  PreloadEach(lbas.size(), [it = lbas.begin()]() mutable { return *it++; });
}

template <typename NextLba>
void SegmentManager::PreloadEach(std::uint64_t count, NextLba next_lba) {
  ++mutation_epoch_;
  AppendRun(active_segment_, count, [&] {
    const std::uint64_t lba = next_lba();
    MOBISIM_CHECK(lba < block_slot_.size());
    MOBISIM_CHECK(block_slot_[lba] == kNoSlot);
    return static_cast<std::uint32_t>(lba);
  });
}

void SegmentManager::WriteBlock(std::uint64_t lba) {
  MOBISIM_CHECK(lba < block_slot_.size());
  ++mutation_epoch_;
  InvalidateBlock(lba);
  AppendRun(active_segment_, 1, [lba] { return static_cast<std::uint32_t>(lba); });
}

void SegmentManager::TrimBlock(std::uint64_t lba) {
  MOBISIM_CHECK(lba < block_slot_.size());
  ++mutation_epoch_;
  InvalidateBlock(lba);
}

std::uint32_t SegmentManager::BlockSegment(std::uint64_t lba) const {
  MOBISIM_CHECK(lba < block_slot_.size());
  const std::uint32_t slot = block_slot_[lba];
  return slot == kNoSlot ? kNoSegment : slot / blocks_per_segment_;
}

std::uint32_t SegmentManager::PickVictim() const {
  if (order_ == VictimOrder::kFewestLive) {
    for (; bucket_floor_ < blocks_per_segment_; ++bucket_floor_) {
      if (bucket_sizes_[bucket_floor_] > 0) {
        return FirstSetBit(bucket_bits_.data() + bucket_floor_ * bucket_words_, bucket_words_);
      }
    }
    return kNoSegment;
  }
  if (order_ == VictimOrder::kOldestFilled) {
    return fill_heap_.empty() ? kNoSegment : fill_heap_.front().segment;
  }
  if (victim_epoch_ == mutation_epoch_) {
    return victim_cache_;
  }
  VictimView view;
  view.blocks_per_segment = blocks_per_segment_;
  view.fill_sequence = fill_sequence_;
  if (policy_->NeedsMaxEraseCount()) {
    for (const Segment& seg : segments_) {
      view.max_erase_count = std::max(view.max_erase_count, seg.erase_count);
    }
  }
  // Only full segments with at least one invalid slot qualify; a sealed
  // segment is never the active or cleaning one.
  std::uint32_t best = kNoSegment;
  double best_score = -1.0;
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seg.slots_used != blocks_per_segment_ || seg.live == blocks_per_segment_) {
      continue;
    }
    const double score =
        policy_->ScoreVictim({i, seg.live, seg.erase_count, seg.sequence}, view);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  victim_epoch_ = mutation_epoch_;
  victim_cache_ = best;
  return best;
}

std::uint32_t SegmentManager::VictimLiveBlocks(std::uint32_t segment) const {
  MOBISIM_CHECK(segment < segments_.size());
  return segments_[segment].live;
}

std::uint32_t SegmentManager::CleanSegment(std::uint32_t segment) {
  MOBISIM_CHECK(segment < segments_.size());
  MOBISIM_CHECK(segment != active_segment_);
  MOBISIM_CHECK(segment != cleaning_segment_);
  Segment& victim = segments_[segment];
  MOBISIM_CHECK(victim.slots_used == blocks_per_segment_);
  MOBISIM_CHECK(free_slots_ >= victim.live);
  ++mutation_epoch_;

  // The victim leaves its victim index once (a fill-order entry goes stale
  // when its sequence is reset below).
  if (order_ == VictimOrder::kFewestLive && victim.live < blocks_per_segment_) {
    BucketErase(segment, victim.live);
  }
  // Copy each live block, at the first slot it was appended to in this fill
  // (a block superseded and appended again while the segment was open
  // appears more than once), into the cleaning destination.  A slot is live
  // if its lba still maps into the victim; once copied, the lba maps
  // elsewhere and its later slots are skipped.  Slots superseded after
  // sealing hold kNoLba and cost no mapping read.  The victim's live count
  // moves to the destination; the device's live total is unchanged.
  const std::uint32_t copied = victim.live;
  victim.live = 0;
  live_blocks_ -= copied;
  const std::uint32_t base = segment * blocks_per_segment_;
  const std::uint32_t* source = slot_lba_.data() + base;
  // Unsigned wrap: kNoSlot and slots of other segments fall outside.
  const auto live = [&](std::uint32_t lba) {
    return lba != kNoLba && block_slot_[lba] - base < blocks_per_segment_;
  };
  AppendRun(config_.separate_cleaning_segment ? cleaning_segment_ : active_segment_, copied,
            [&] {
              while (!live(*source)) {
                ++source;
              }
              MOBISIM_DCHECK(source < slot_lba_.data() + base + blocks_per_segment_);
              return *source++;
            });

  victim.slots_used = 0;
  victim.sequence = 0;
  ++victim.erase_count;
  ++total_erases_;
  if (order_ == VictimOrder::kOldestFilled) {
    DropStaleFillEntries();
  }
  const std::uint32_t limit =
      victim.endurance_limit > 0 ? victim.endurance_limit : config_.endurance_limit;
  if (limit > 0 && victim.erase_count >= limit) {
    // The erase succeeded but the segment is at its cycle limit: retire it.
    victim.bad = true;
    ++bad_segments_;
  } else {
    SetBit(erased_bits_.data(), segment);
    ++erased_segments_;
    free_slots_ += blocks_per_segment_;
  }
  return copied;
}

void SegmentManager::SetEnduranceBudget(std::uint32_t segment, std::uint32_t limit) {
  MOBISIM_CHECK(segment < segments_.size());
  ++mutation_epoch_;
  segments_[segment].endurance_limit = limit;
}

void SegmentManager::RetireSegment(std::uint32_t segment) {
  MOBISIM_CHECK(segment < segments_.size());
  Segment& seg = segments_[segment];
  MOBISIM_CHECK(seg.slots_used == 0 && !seg.bad);
  MOBISIM_CHECK(segment != active_segment_ && segment != cleaning_segment_);
  MOBISIM_CHECK(erased_segments_ > 0);
  MOBISIM_CHECK(free_slots_ >= blocks_per_segment_);
  ++mutation_epoch_;
  seg.bad = true;
  ClearBit(erased_bits_.data(), segment);
  --erased_segments_;
  free_slots_ -= blocks_per_segment_;
  ++bad_segments_;
}

bool SegmentManager::segment_is_bad(std::uint32_t segment) const {
  MOBISIM_CHECK(segment < segments_.size());
  return segments_[segment].bad;
}

bool SegmentManager::segment_is_erased(std::uint32_t segment) const {
  MOBISIM_CHECK(segment < segments_.size());
  return TestBit(erased_bits_.data(), segment);
}

RunningStats SegmentManager::EraseCountStats() const {
  RunningStats stats;
  for (const Segment& seg : segments_) {
    stats.Add(static_cast<double>(seg.erase_count));
  }
  return stats;
}

bool SegmentManager::CheckInvariants() const {
  // The mapping and the slot table must be inverses over the live slots.
  std::vector<std::uint32_t> live_per_segment(segments_.size(), 0);
  std::uint64_t mapped = 0;
  for (std::size_t lba = 0; lba < block_slot_.size(); ++lba) {
    const std::uint32_t slot = block_slot_[lba];
    if (slot == kNoSlot) {
      continue;
    }
    if (slot >= slot_lba_.size() || slot_lba_[slot] != lba ||
        slot % blocks_per_segment_ >= segments_[slot / blocks_per_segment_].slots_used) {
      return false;
    }
    ++live_per_segment[slot / blocks_per_segment_];
    ++mapped;
  }
  if (mapped != live_blocks_) {
    return false;
  }
  std::uint64_t used = 0;
  std::uint32_t erased = 0;
  std::vector<std::uint32_t> bucket_sizes(bucket_sizes_.size(), 0);
  std::vector<std::uint32_t> fill_entries(segments_.size(), 0);
  for (const FillEntry& entry : fill_heap_) {
    if (entry.segment >= segments_.size()) {
      return false;
    }
    fill_entries[entry.segment] += FillEntryLive(entry) ? 1 : 0;
  }
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seg.live != live_per_segment[i]) {
      return false;
    }
    if (seg.live > seg.slots_used || seg.slots_used > blocks_per_segment_) {
      return false;
    }
    // The slots the mapping points at are the live ones; in a sealed
    // segment every other slot either holds kNoLba or was superseded while
    // the segment was open.
    std::uint32_t occupied = 0;
    for (std::uint32_t k = 0; k < seg.slots_used; ++k) {
      const std::uint32_t slot = i * blocks_per_segment_ + k;
      const std::uint32_t lba = slot_lba_[slot];
      if (lba != kNoLba && (lba >= block_slot_.size())) {
        return false;
      }
      occupied += lba != kNoLba && block_slot_[lba] == slot ? 1 : 0;
    }
    if (occupied != seg.live) {
      return false;
    }
    const bool sealed = seg.slots_used == blocks_per_segment_;
    if ((seg.sequence != 0) != sealed || seg.sequence > fill_sequence_) {
      return false;
    }
    used += seg.slots_used;
    const bool is_erased =
        seg.slots_used == 0 && !seg.bad && i != active_segment_ && i != cleaning_segment_;
    if (is_erased) {
      ++erased;
    }
    if (TestBit(erased_bits_.data(), i) != is_erased) {
      return false;
    }
    const bool candidate = sealed && seg.live < blocks_per_segment_;
    if (order_ == VictimOrder::kFewestLive) {
      for (std::uint32_t live = 0; live < blocks_per_segment_; ++live) {
        const bool in_bucket = TestBit(bucket_bits_.data() + live * bucket_words_, i);
        if (in_bucket != (candidate && live == seg.live) || (in_bucket && live < bucket_floor_)) {
          return false;
        }
        bucket_sizes[live] += in_bucket ? 1 : 0;
      }
    }
    if (fill_entries[i] != (order_ == VictimOrder::kOldestFilled && candidate ? 1u : 0u)) {
      return false;
    }
  }
  if (erased != erased_segments_ || bucket_sizes != bucket_sizes_) {
    return false;
  }
  if (!std::is_heap(fill_heap_.begin(), fill_heap_.end(), LaterFilled) ||
      (!fill_heap_.empty() && !FillEntryLive(fill_heap_.front()))) {
    return false;
  }
  const std::uint64_t bad_capacity =
      static_cast<std::uint64_t>(bad_segments_) * blocks_per_segment_;
  return used + free_slots_ + bad_capacity == total_blocks();
}

}  // namespace mobisim
