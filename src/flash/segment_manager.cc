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
  block_segment_.assign(logical, kNoSegment);
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
  keep_buckets_ = policy_->victim_order() == VictimOrder::kFewestLive;
  if (keep_buckets_) {
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

std::uint32_t SegmentManager::active_free_slots() const {
  if (active_segment_ == kNoSegment) {
    return 0;
  }
  return blocks_per_segment_ - segments_[active_segment_].slots_used;
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

void SegmentManager::OpenNewActiveSegment(std::uint32_t& slot) {
  const std::uint32_t i = FirstSetBit(erased_bits_.data(), erased_bits_.size());
  MOBISIM_CHECK(i != kNoSegment && "no erased segment available for the active role");
  MOBISIM_CHECK(erased_segments_ > 0);
  ClearBit(erased_bits_.data(), i);
  --erased_segments_;
  slot = i;
  // The segment will fill completely before it closes; one allocation up
  // front instead of push_back growth (CleanSegment moves the vector away, so
  // capacity does not survive an erase cycle).
  segments_[i].residents.reserve(blocks_per_segment_);
}

void SegmentManager::BucketInsert(std::uint32_t segment, std::uint32_t live) {
  if (keep_buckets_ && live < blocks_per_segment_) {
    SetBit(bucket_bits_.data() + live * bucket_words_, segment);
    ++bucket_sizes_[live];
  }
}

void SegmentManager::BucketErase(std::uint32_t segment, std::uint32_t live) {
  if (keep_buckets_ && live < blocks_per_segment_) {
    ClearBit(bucket_bits_.data() + live * bucket_words_, segment);
    --bucket_sizes_[live];
  }
}

void SegmentManager::AppendBlock(std::uint64_t lba, bool cleaning) {
  MOBISIM_CHECK(free_slots_ > 0);
  ++mutation_epoch_;
  std::uint32_t& role = (cleaning && config_.separate_cleaning_segment) ? cleaning_segment_
                                                                        : active_segment_;
  if (role == kNoSegment || segments_[role].slots_used == blocks_per_segment_) {
    OpenNewActiveSegment(role);
  }
  const std::uint32_t target = role;
  Segment& seg = segments_[target];
  ++seg.slots_used;
  ++seg.live;
  seg.residents.push_back(lba);
  if (seg.slots_used == blocks_per_segment_) {
    // Seal the segment: a full segment is no longer "active" and becomes a
    // cleaning candidate like any other.
    seg.sequence = ++fill_sequence_;
    role = kNoSegment;
    BucketInsert(target, seg.live);
  }
  --free_slots_;
  ++live_blocks_;
  block_segment_[lba] = target;
}

void SegmentManager::InvalidateBlock(std::uint64_t lba) {
  const std::uint32_t seg_idx = block_segment_[lba];
  if (seg_idx == kNoSegment) {
    return;
  }
  ++mutation_epoch_;
  Segment& seg = segments_[seg_idx];
  MOBISIM_DCHECK(seg.live > 0);
  if (seg.slots_used == blocks_per_segment_) {
    BucketErase(seg_idx, seg.live);
    BucketInsert(seg_idx, seg.live - 1);
  }
  --seg.live;
  --live_blocks_;
  block_segment_[lba] = kNoSegment;
}

void SegmentManager::Preload(std::uint64_t lba, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    MOBISIM_CHECK(lba + i < block_segment_.size());
    MOBISIM_CHECK(block_segment_[lba + i] == kNoSegment);
    AppendBlock(lba + i);
  }
}

void SegmentManager::WriteBlock(std::uint64_t lba) {
  MOBISIM_CHECK(lba < block_segment_.size());
  InvalidateBlock(lba);
  AppendBlock(lba);
}

void SegmentManager::TrimBlock(std::uint64_t lba) {
  MOBISIM_CHECK(lba < block_segment_.size());
  InvalidateBlock(lba);
}

bool SegmentManager::IsMapped(std::uint64_t lba) const {
  MOBISIM_CHECK(lba < block_segment_.size());
  return block_segment_[lba] != kNoSegment;
}

std::uint32_t SegmentManager::BlockSegment(std::uint64_t lba) const {
  MOBISIM_CHECK(lba < block_segment_.size());
  return block_segment_[lba];
}

std::uint32_t SegmentManager::PickVictim() const {
  if (keep_buckets_) {
    for (std::uint32_t live = 0; live < blocks_per_segment_; ++live) {
      if (bucket_sizes_[live] > 0) {
        return FirstSetBit(bucket_bits_.data() + live * bucket_words_, bucket_words_);
      }
    }
    return kNoSegment;
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

  std::uint32_t best = kNoSegment;
  double best_score = -1.0;
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (i == active_segment_ || seg.slots_used != blocks_per_segment_ ||
        seg.live == blocks_per_segment_) {
      continue;  // only full segments with at least one invalid slot qualify
    }
    VictimCandidate candidate;
    candidate.index = i;
    candidate.live = seg.live;
    candidate.erase_count = seg.erase_count;
    candidate.sequence = seg.sequence;
    const double score = policy_->ScoreVictim(candidate, view);
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

  // Copy the still-live residents into the active segment.  Resident entries
  // may be stale (the block was overwritten elsewhere since being appended
  // here); the mapping is the source of truth.
  std::uint32_t copied = 0;
  std::vector<std::uint64_t> residents = std::move(victim.residents);
  victim.residents.clear();
  for (const std::uint64_t lba : residents) {
    if (block_segment_[lba] != segment) {
      continue;
    }
    InvalidateBlock(lba);
    AppendBlock(lba, /*cleaning=*/true);
    ++copied;
  }
  MOBISIM_CHECK(victim.live == 0);

  BucketErase(segment, 0);
  victim.slots_used = 0;
  victim.sequence = 0;
  ++victim.erase_count;
  ++total_erases_;
  ++mutation_epoch_;
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
  std::vector<std::uint32_t> live_per_segment(segments_.size(), 0);
  std::uint64_t mapped = 0;
  for (std::size_t lba = 0; lba < block_segment_.size(); ++lba) {
    const std::uint32_t seg = block_segment_[lba];
    if (seg == kNoSegment) {
      continue;
    }
    if (seg >= segments_.size()) {
      return false;
    }
    ++live_per_segment[seg];
    ++mapped;
  }
  if (mapped != live_blocks_) {
    return false;
  }
  std::uint64_t used = 0;
  std::uint32_t erased = 0;
  std::vector<std::uint32_t> bucket_sizes(bucket_sizes_.size(), 0);
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seg.live != live_per_segment[i]) {
      return false;
    }
    if (seg.live > seg.slots_used || seg.slots_used > blocks_per_segment_) {
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
    if (keep_buckets_) {
      const bool candidate = seg.slots_used == blocks_per_segment_ && seg.live < blocks_per_segment_;
      for (std::uint32_t live = 0; live < blocks_per_segment_; ++live) {
        const bool in_bucket = TestBit(bucket_bits_.data() + live * bucket_words_, i);
        if (in_bucket != (candidate && live == seg.live)) {
          return false;
        }
        bucket_sizes[live] += in_bucket ? 1 : 0;
      }
    }
  }
  if (erased != erased_segments_ || bucket_sizes != bucket_sizes_) {
    return false;
  }
  const std::uint64_t bad_capacity =
      static_cast<std::uint64_t>(bad_segments_) * blocks_per_segment_;
  return used + free_slots_ + bad_capacity == total_blocks();
}

}  // namespace mobisim
