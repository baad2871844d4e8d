// Segment-level state of a log-structured flash device.
//
// Pure state machine, no notion of time or energy: it tracks which logical
// block lives in which erase segment, per-segment live counts, erase counts,
// and free (erased) slots.  The LogFlashDevice model layers timing, energy,
// and the background-erase schedule on top.
//
// Semantics follow section 4.2 of the paper: writes are out-of-place into a
// single active segment which is filled completely before a new segment is
// opened; cleaning copies the remaining live blocks of a victim segment into
// the active segment and then erases the victim.
#ifndef MOBISIM_SRC_FLASH_SEGMENT_MANAGER_H_
#define MOBISIM_SRC_FLASH_SEGMENT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace mobisim {

class FtlPolicy;

enum class CleaningPolicy : std::uint8_t {
  // Pick the segment with the fewest live blocks (the MFFS policy, section 2).
  kGreedy = 0,
  // LFS/eNVy-style cost-benefit: maximize (free space gained * age) / cost.
  kCostBenefit = 1,
  // Greedy biased toward under-erased segments, implementing the paper's
  // "spread the load over the flash memory to avoid burning out particular
  // areas" (section 2).  Trades some extra copying for a narrower
  // erase-count distribution.
  kWearAware = 2,
};

const char* CleaningPolicyName(CleaningPolicy policy);

struct SegmentManagerConfig {
  std::uint64_t capacity_bytes = 40ull * 1024 * 1024;
  std::uint32_t segment_bytes = 128 * 1024;
  std::uint32_t block_bytes = 1024;
  // Logical address-space size in blocks; 0 means equal to the physical slot
  // count.  A larger logical space lets file systems burn through addresses
  // (create/delete churn) while live data stays within physical capacity.
  std::uint64_t logical_blocks = 0;
  // Route cleaning copies into their own active segment instead of mixing
  // them with fresh host writes.  This is eNVy's locality trick (and LFS age
  // sorting): survivors of cleaning are cold, so segregating them keeps cold
  // data out of the hot segments and slashes write amplification under
  // skewed traffic.
  bool separate_cleaning_segment = false;
  // Erase-cycle limit per segment; a segment reaching it is retired (goes
  // bad) and its capacity is lost.  0 disables wear-out (the default: the
  // paper tracks erase counts but does not model failures).
  std::uint32_t endurance_limit = 0;
  // Victim-selection policy, fixed at construction so the PickVictim epoch
  // cache can never be invalidated by a caller switching policies mid-run.
  // Used when `policy` is null (the manager then owns a private
  // LogStructuredFtl for this cleaner).
  CleaningPolicy cleaning_policy = CleaningPolicy::kGreedy;
  // Externally owned FtlPolicy to score victims with; must outlive the
  // manager.  LogFlashDevice injects its own policy here so victim selection
  // and placement hooks come from one object.
  const FtlPolicy* policy = nullptr;
};

// One cleaning candidate as seen by FtlPolicy::ScoreVictim.
struct VictimCandidate {
  std::uint32_t index = 0;
  std::uint32_t live = 0;         // still-mapped blocks
  std::uint32_t erase_count = 0;
  std::uint64_t sequence = 0;     // fill-completion stamp (1 = oldest)
};

// Scan-invariant context for ScoreVictim.
struct VictimView {
  std::uint32_t blocks_per_segment = 0;
  std::uint64_t fill_sequence = 0;   // newest stamp issued so far
  // Highest erase count across all segments; populated only when the policy
  // reports NeedsMaxEraseCount().
  std::uint32_t max_erase_count = 0;
};

// How SegmentManager::PickVictim finds the best-scoring candidate.
enum class VictimOrder : std::uint8_t {
  // Score every candidate; works for any ScoreVictim.
  kScan = 0,
  // ScoreVictim depends on nothing but blocks_per_segment - live, and rises
  // with it: the winner is the lowest-index candidate with the fewest live
  // blocks, which SegmentManager reads off per-live-count buckets.
  kFewestLive = 1,
  // ScoreVictim is 1 / sequence: the winner is the candidate sealed first
  // (sequences are unique), which SegmentManager keeps in a fill-order
  // index.
  kOldestFilled = 2,
};

class SegmentManager {
 public:
  static constexpr std::uint32_t kNoSegment = ~std::uint32_t{0};

  explicit SegmentManager(const SegmentManagerConfig& config);
  // Out of line: the owned policy's deleter needs the complete FtlPolicy.
  ~SegmentManager();

  // Marks `count` logical blocks starting at `lba` live, placing them in
  // append order (used to preload the card to a target utilization).  Fills
  // whole segments at a time; the layout is the one `count` WriteBlock calls
  // would leave.
  void Preload(std::uint64_t lba, std::uint64_t count);
  // The same for unmapped blocks in the order `lbas` lists them.
  void Preload(std::span<const std::uint64_t> lbas);

  // True if a one-block host write can proceed right now.
  bool HasFreeSlot() const { return free_slots_ > 0; }

  // Out-of-place write of one logical block.  Requires HasFreeSlot().
  // Invalidates the block's previous location if it had one.
  void WriteBlock(std::uint64_t lba);

  // Drops a block's mapping (file deletion / trim).  No-op if unmapped.
  void TrimBlock(std::uint64_t lba);

  bool IsMapped(std::uint64_t lba) const {
    MOBISIM_CHECK(lba < block_slot_.size());
    return block_slot_[lba] != kNoSlot;
  }
  // Segment currently holding `lba`, or kNoSegment.
  std::uint32_t BlockSegment(std::uint64_t lba) const;

  // Chooses a cleaning victim among full segments that contain at least one
  // invalid slot; kNoSegment if none qualifies.  Scoring delegates to the
  // policy fixed at construction time; how the winner is found depends on
  // its victim_order() (DESIGN.md section 16): kFewestLive reads it off the
  // live-count buckets, kOldestFilled off the fill-order index, and kScan
  // scores every candidate.
  std::uint32_t PickVictim() const;

  // Number of live blocks cleaning this victim would copy.
  std::uint32_t VictimLiveBlocks(std::uint32_t segment) const;

  // Copies the victim's live blocks to the active segment (consuming free
  // slots) and erases the victim.  Requires free_slots() >= live count.
  // Returns the number of blocks copied.
  std::uint32_t CleanSegment(std::uint32_t segment);

  // Per-segment endurance override used by fault injection to sample a wear
  // budget per erase block; 0 falls back to config.endurance_limit.
  void SetEnduranceBudget(std::uint32_t segment, std::uint32_t limit);

  // Retires a currently-erased, non-active segment immediately (factory bad
  // block).  Its capacity is lost.
  void RetireSegment(std::uint32_t segment);

  // -- Introspection ----------------------------------------------------------
  std::uint32_t segment_count() const { return static_cast<std::uint32_t>(segments_.size()); }
  std::uint32_t blocks_per_segment() const { return blocks_per_segment_; }
  std::uint64_t total_blocks() const;
  std::uint64_t free_slots() const { return free_slots_; }
  std::uint64_t live_blocks() const { return live_blocks_; }
  // Segments that are fully erased (no slot consumed), excluding the active
  // segment.
  std::uint32_t erased_segment_count() const { return erased_segments_; }
  // Segments retired by the endurance limit.
  std::uint32_t bad_segment_count() const { return bad_segments_; }
  bool segment_is_bad(std::uint32_t segment) const;
  // Erased, good and not open: a segment RetireSegment accepts.
  bool segment_is_erased(std::uint32_t segment) const;
  // Physical slots not lost to retired segments.
  std::uint64_t usable_blocks() const {
    return total_blocks() -
           static_cast<std::uint64_t>(bad_segments_) * blocks_per_segment_;
  }
  // Unwritten slots remaining in the current active segment (0 if none open).
  std::uint32_t active_free_slots() const {
    return active_segment_ == kNoSegment
               ? 0
               : blocks_per_segment_ - segments_[active_segment_].slots_used;
  }
  // Unwritten slots remaining in the cleaning destination segment; falls
  // back to the host active segment when cleaning is not segregated.
  std::uint32_t cleaning_free_slots() const;
  double utilization() const;
  std::uint32_t segment_live_count(std::uint32_t segment) const;
  std::uint32_t segment_erase_count(std::uint32_t segment) const;
  // Fill-completion stamp of a sealed segment (1 = first sealed); 0 while
  // the segment is erased or open.
  std::uint64_t segment_sequence(std::uint32_t segment) const;
  std::uint64_t total_erase_operations() const { return total_erases_; }
  // Endurance summary over all segments.
  RunningStats EraseCountStats() const;

  // Internal-consistency check used by tests and MOBISIM_DCHECK call sites:
  // live + free + invalid slots == total slots, per-segment counts match the
  // mapping and the slot table, the erased set, the live-count buckets and
  // the fill-order index match a recount, etc.
  bool CheckInvariants() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoLba = ~std::uint32_t{0};

  struct Segment {
    std::uint32_t slots_used = 0;   // appended blocks since last erase
    std::uint32_t live = 0;         // still-mapped blocks
    std::uint32_t erase_count = 0;
    // Sampled wear budget for this segment; 0 uses config.endurance_limit.
    std::uint32_t endurance_limit = 0;
    bool bad = false;               // retired by the endurance limit
    std::uint64_t sequence = 0;     // fill-completion order, for cost-benefit age
  };

  // A sealed segment in the fill-order index (kOldestFilled).
  struct FillEntry {
    std::uint64_t sequence = 0;
    std::uint32_t segment = 0;
  };

  // Opens the lowest-index erased segment into `slot` (the host or cleaning
  // active role).
  void OpenNewActiveSegment(std::uint32_t& slot);
  // Appends `count` blocks, the lbas `next_lba()` yields in turn, to the
  // segment in `role` (the host or cleaning active role), a segment's worth
  // at a time: opens the lowest erased segment when the role has none and
  // seals each segment it fills.  The one append path: host writes,
  // preloads and cleaning copies.
  template <typename NextLba>
  void AppendRun(std::uint32_t& role, std::uint64_t count, NextLba next_lba);
  // Appends `count` unmapped blocks in the order `next_lba()` yields them.
  template <typename NextLba>
  void PreloadEach(std::uint64_t count, NextLba next_lba);
  // Closes the segment in `role` once its last slot is written.
  void Seal(std::uint32_t& role);
  void InvalidateBlock(std::uint64_t lba);
  // Adds a sealed segment with at least one invalid slot to the victim
  // index of the policy's order (no-op for kScan).
  void IndexInsert(std::uint32_t segment);
  void BucketErase(std::uint32_t segment, std::uint32_t live);
  // Heap order of fill_heap_: the smallest sequence on top.
  static bool LaterFilled(const FillEntry& a, const FillEntry& b) {
    return a.sequence > b.sequence;
  }
  // Whether a fill-order entry still names a sealed candidate; a cleaned
  // segment's entry goes stale (its sequence is reset) and is dropped lazily.
  bool FillEntryLive(const FillEntry& entry) const {
    return segments_[entry.segment].sequence == entry.sequence;
  }
  void DropStaleFillEntries();

  SegmentManagerConfig config_;
  // Private log-structured policy backing config_.cleaning_policy when no
  // external policy was injected.
  std::unique_ptr<const FtlPolicy> owned_policy_;
  const FtlPolicy* policy_ = nullptr;
  std::uint32_t blocks_per_segment_;
  std::vector<Segment> segments_;
  // lba -> physical slot (segment * blocks_per_segment_ + offset), or
  // kNoSlot.
  std::vector<std::uint32_t> block_slot_;
  // Physical slot -> the lba appended there, or kNoLba once that block was
  // superseded or trimmed after the segment sealed.  A slot superseded while
  // its segment was open keeps its lba (see CleanSegment); the mapping tells
  // live slots from stale ones.  Only the first slots_used entries of a
  // segment mean anything; an erase leaves the rest to be overwritten.
  std::vector<std::uint32_t> slot_lba_;
  std::uint32_t active_segment_ = kNoSegment;
  // Destination of cleaning copies when separate_cleaning_segment is set.
  std::uint32_t cleaning_segment_ = kNoSegment;
  std::uint64_t free_slots_ = 0;
  std::uint64_t live_blocks_ = 0;
  std::uint32_t erased_segments_ = 0;
  std::uint32_t bad_segments_ = 0;
  std::uint64_t total_erases_ = 0;
  std::uint64_t fill_sequence_ = 0;

  // Erased, good segments (slots_used == 0 and not bad), one bit per
  // segment, so OpenNewActiveSegment finds the lowest with a find-first-set.
  // A segment leaves the set when it opens and holds a slot from then on, so
  // the active and cleaning segments are never in it.
  std::vector<std::uint64_t> erased_bits_;

  VictimOrder order_ = VictimOrder::kScan;

  // kFewestLive: row L (bucket_words_ words) has the bit of every sealed
  // segment with exactly L < blocks_per_segment_ live blocks, and
  // bucket_sizes_[L] counts them.  The victim is the lowest set bit of the
  // lowest non-empty row -- the lowest index among the fewest-live
  // candidates, as the strict `>` scan picks on a tie.  No row below
  // bucket_floor_ is non-empty.  One bit per physical block, plus
  // O(blocks_per_segment_).
  std::size_t bucket_words_ = 0;
  std::vector<std::uint64_t> bucket_bits_;
  std::vector<std::uint32_t> bucket_sizes_;
  mutable std::uint32_t bucket_floor_ = 0;

  // kOldestFilled: a min-heap on sequence of the sealed segments with at
  // least one invalid slot.  Entries of cleaned segments go stale and are
  // popped once they reach the top, so the top is always live and is the
  // candidate with the smallest fill stamp.
  std::vector<FillEntry> fill_heap_;

  // kScan: PickVictim scores every candidate, and the device model re-asks
  // it after nearly every record while the erased reserve is low.  Every
  // input to the scoring (live counts, fill order, erase counts, the active
  // segment) changes only through the mutating methods, which bump
  // mutation_epoch_; the last answer is cached and reused until then.  The
  // policy is fixed at construction, so the epoch alone keys the cache.
  std::uint64_t mutation_epoch_ = 0;
  mutable std::uint64_t victim_epoch_ = ~std::uint64_t{0};
  mutable std::uint32_t victim_cache_ = kNoSegment;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_FLASH_SEGMENT_MANAGER_H_
