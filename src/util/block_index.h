// Block containers indexed directly by LBA.
//
// The simulator probes the DRAM cache and SRAM buffer once per block of
// every operation — the hottest lookups in the whole run.  Every owner knows
// its block address space up front (the trace's or the disk's block count),
// so these containers index it directly: a probe is one array read, with no
// hashing and no probe loop.  The index is allocated once, at construction;
// an LBA outside the address space fails a check naming the LBA and size.
//
// Neither container exposes iteration order — callers that need ordered
// output (DrainDirty / Drain) sort, so results never depend on layout.
#ifndef MOBISIM_SRC_UTIL_BLOCK_INDEX_H_
#define MOBISIM_SRC_UTIL_BLOCK_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/check.h"

namespace mobisim {

// A maximal run of consecutive blocks.
struct BlockRange {
  std::uint64_t lba = 0;
  std::uint32_t count = 0;
};

// Appends `lba` to `out`, extending the last range when it is contiguous.
// Fed blocks in ascending order, it coalesces them into maximal runs.
inline void AppendCoalesced(std::uint64_t lba, std::vector<BlockRange>* out) {
  if (!out->empty() && out->back().lba + out->back().count == lba) {
    ++out->back().count;
  } else {
    out->push_back(BlockRange{lba, 1});
  }
}

inline void CheckBlockInRange(std::uint64_t lba, std::uint64_t address_blocks) {
  MOBISIM_CHECK_MSG(lba < address_blocks, "lba " + std::to_string(lba) + " outside a " +
                                              std::to_string(address_blocks) +
                                              "-block address space");
}

// Set of block addresses (SramWriteBuffer's dirty set): one bit per LBA of
// the address space for membership, plus the members as a list for Drain.
class FlatBlockSet {
 public:
  explicit FlatBlockSet(std::uint64_t address_blocks)
      : address_blocks_(address_blocks), bits_((address_blocks + 63) / 64) {}

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  bool contains(std::uint64_t lba) const {
    CheckBlockInRange(lba, address_blocks_);
    return (bits_[lba >> 6] >> (lba & 63)) & 1u;
  }

  // Returns true if `lba` was newly inserted.
  bool insert(std::uint64_t lba) {
    if (contains(lba)) {
      return false;
    }
    bits_[lba >> 6] |= std::uint64_t{1} << (lba & 63);
    members_.push_back(lba);
    return true;
  }

  // Returns true if `lba` was present.  Linear in the member count, paid
  // only when the block really is a member (file deletions).
  bool erase(std::uint64_t lba) {
    if (!contains(lba)) {
      return false;
    }
    bits_[lba >> 6] &= ~(std::uint64_t{1} << (lba & 63));
    *std::find(members_.begin(), members_.end(), lba) = members_.back();
    members_.pop_back();
    return true;
  }

  // Empties the set into `out` (replacing its contents): the members
  // coalesced into ranges sorted by LBA.
  void DrainInto(std::vector<BlockRange>* out) {
    out->clear();
    std::sort(members_.begin(), members_.end());
    for (const std::uint64_t lba : members_) {
      bits_[lba >> 6] = 0;  // every set bit is a member: clear whole words
      AppendCoalesced(lba, out);
    }
    members_.clear();
  }

 private:
  std::uint64_t address_blocks_;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> members_;
};

// LRU map of block addresses with a dirty bit and a 32-bit payload per
// entry (BufferCache's index + recency list + dirty set; the flash file
// cache's block → slot map).  `index_[lba]` holds the entry's position in a
// contiguous entry array; the LRU list is intrusive (prev/next positions in
// the entries), so a touch is one index read, two or three entry writes and
// zero allocations.  Eviction order is exact LRU.
class LruBlockMap {
 public:
  // `capacity` is the most entries the owner keeps; it only sizes the entry
  // array's reservation.
  LruBlockMap(std::uint64_t address_blocks, std::uint64_t capacity) {
    MOBISIM_CHECK_MSG(address_blocks <= kNone,
                      "address space of " + std::to_string(address_blocks) + " blocks");
    index_.assign(address_blocks, kNone);
    entries_.reserve(std::min(address_blocks, capacity));
  }

  std::size_t size() const { return size_; }
  std::size_t dirty_count() const { return dirty_count_; }

  bool Contains(std::uint64_t lba) const { return Find(lba) != kNone; }

  // The payload of a present entry.
  std::uint32_t payload(std::uint64_t lba) const {
    const std::uint32_t idx = Find(lba);
    MOBISIM_DCHECK(idx != kNone);
    return entries_[idx].payload;
  }

  // The least recently used lba.  Must be non-empty.
  std::uint64_t LruBlock() const {
    MOBISIM_DCHECK(tail_ != kNone);
    return entries_[tail_].lba;
  }

  // Moves a present entry to the MRU position.  Returns false (and does
  // nothing) when absent.
  bool TouchIfPresent(std::uint64_t lba) {
    const std::uint32_t idx = Find(lba);
    if (idx == kNone) {
      return false;
    }
    if (head_ != idx) {
      Unlink(idx);
      LinkFront(idx);
    }
    return true;
  }

  // Inserts `lba` as the MRU entry, clean.  Must not be present.
  void InsertFront(std::uint64_t lba, std::uint32_t payload = 0) {
    std::uint32_t& slot = Slot(lba);
    MOBISIM_DCHECK(slot == kNone);
    std::uint32_t idx;
    if (free_head_ != kNone) {
      idx = free_head_;
      free_head_ = entries_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    entries_[idx].lba = static_cast<std::uint32_t>(lba);
    entries_[idx].payload = payload;
    entries_[idx].dirty = false;
    slot = idx;
    LinkFront(idx);
    ++size_;
  }

  // Removes the LRU entry; returns its lba and whether it was dirty.  Must
  // be non-empty.
  std::uint64_t EvictLru(bool* was_dirty) {
    const std::uint64_t lba = LruBlock();
    *was_dirty = entries_[tail_].dirty;
    Remove(tail_);
    return lba;
  }

  // Removes an arbitrary entry; returns whether it was present.
  bool Erase(std::uint64_t lba) {
    const std::uint32_t idx = Find(lba);
    if (idx == kNone) {
      return false;
    }
    Remove(idx);
    return true;
  }

  // Sets the dirty bit on a present entry; returns false when absent.
  bool MarkDirty(std::uint64_t lba) {
    const std::uint32_t idx = Find(lba);
    if (idx == kNone) {
      return false;
    }
    if (!entries_[idx].dirty) {
      entries_[idx].dirty = true;
      ++dirty_count_;
    }
    return true;
  }

  // Appends every dirty lba, in unspecified order; callers sort.
  void CollectDirty(std::vector<std::uint64_t>* out) const {
    for (std::uint32_t idx = head_; idx != kNone; idx = entries_[idx].next) {
      if (entries_[idx].dirty) {
        out->push_back(entries_[idx].lba);
      }
    }
  }

  // Clears every dirty bit, keeping all entries cached (the sync path).
  void ClearDirtyBits() {
    for (std::uint32_t idx = head_; idx != kNone; idx = entries_[idx].next) {
      entries_[idx].dirty = false;
    }
    dirty_count_ = 0;
  }

  // Drops every entry.  Resets only the index slots of cached blocks, not
  // the whole address space.
  void Clear() {
    for (std::uint32_t idx = head_; idx != kNone; idx = entries_[idx].next) {
      index_[entries_[idx].lba] = kNone;
    }
    entries_.clear();
    head_ = tail_ = free_head_ = kNone;
    size_ = 0;
    dirty_count_ = 0;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Entry {
    std::uint32_t lba = 0;
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
    std::uint32_t payload = 0;
    bool dirty = false;
  };

  std::uint32_t& Slot(std::uint64_t lba) {
    CheckBlockInRange(lba, index_.size());
    return index_[lba];
  }
  std::uint32_t Find(std::uint64_t lba) const {
    CheckBlockInRange(lba, index_.size());
    return index_[lba];
  }

  void Remove(std::uint32_t idx) {
    Entry& e = entries_[idx];
    index_[e.lba] = kNone;
    if (e.dirty) {
      --dirty_count_;
    }
    Unlink(idx);
    e.next = free_head_;
    free_head_ = idx;
    --size_;
  }

  void LinkFront(std::uint32_t idx) {
    entries_[idx].prev = kNone;
    entries_[idx].next = head_;
    if (head_ != kNone) {
      entries_[head_].prev = idx;
    }
    head_ = idx;
    if (tail_ == kNone) {
      tail_ = idx;
    }
  }

  void Unlink(std::uint32_t idx) {
    const std::uint32_t prev = entries_[idx].prev;
    const std::uint32_t next = entries_[idx].next;
    if (prev != kNone) {
      entries_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNone) {
      entries_[next].prev = prev;
    } else {
      tail_ = prev;
    }
  }

  std::vector<std::uint32_t> index_;
  std::vector<Entry> entries_;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
  std::uint32_t free_head_ = kNone;
  std::size_t size_ = 0;
  std::size_t dirty_count_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_BLOCK_INDEX_H_
