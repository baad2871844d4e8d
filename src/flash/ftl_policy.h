// Flash translation layer policies.
//
// An FtlPolicy bundles every decision a log-structured flash device
// delegates to its translation/cleaning scheme:
//
//   * victim selection  -- which sealed segment the cleaner erases next
//                          (ScoreVictim, consulted by SegmentManager);
//   * block placement   -- what physically gets appended to the log when the
//                          host overwrites a block (PlanHostWrite);
//   * read cost         -- extra device-internal bytes needed to assemble a
//                          block on read, e.g. merging page diffs
//                          (ExtraReadBytes);
//   * cleaning routing  -- whether cleaning copies are segregated from host
//                          writes (RouteCleaningSeparately).
//
// Ownership and threading contract: a policy instance is owned by exactly one
// device (LogFlashDevice owns its policy via MakeFtlPolicy; a bare
// SegmentManager without an injected policy owns a private log-structured
// one).  Instances are stateful and NOT thread-safe; parallel sweeps are safe
// because every simulation point builds its own device and therefore its own
// policy.
//
// Cost-hook contract: PlanHostWrite/ExtraReadBytes describe *what* the device
// should charge (log appends, programmed bytes, internal merge reads); the
// device's timing model translates that into time and energy.  A plan with
// appends == {lba} and programmed_bytes == block_bytes is the identity plan
// -- the classic log-structured write -- which LogFlashDevice builds inline
// for the log-structured policy instead of calling the hooks, byte-identical
// to the pre-FtlPolicy code.
//
// Registering a new policy: add a FtlPolicyKind value, a name in the table in
// ftl_policy.cc (FtlPolicyKindName/FtlPolicyKindFromName), a class deriving
// from FtlPolicy here, and a case in MakeFtlPolicy.  config_text / the
// `ftl =` sweep dimension pick it up by name automatically.
#ifndef MOBISIM_SRC_FLASH_FTL_POLICY_H_
#define MOBISIM_SRC_FLASH_FTL_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/flash/segment_manager.h"

namespace mobisim {

// Structural FTL scheme.  Orthogonal to CleaningPolicy: log-structured
// schemes still choose a cleaner (greedy / cost-benefit / wear-aware).
enum class FtlPolicyKind : std::uint8_t {
  // MFFS-style out-of-place log with segment cleaning (the paper's scheme).
  kLogStructured = 0,
  // Page-differential logging (Kim/Whang/Song): an overwrite of a dirty page
  // appends only the delta; a full chain forces a merge, reads pay to fold
  // outstanding diffs in.
  kPageDiff = 1,
  // FAT-style block remapping per the flash-disk emulator: a bounded in-RAM
  // remap table redirects overwritten blocks, segments are reclaimed in FIFO
  // fill order, and table wraparound flushes a map page to flash.
  kFatRemap = 2,
};

// The single name-lowering rule every by-name lookup (cleaners, FTL kinds,
// devices, backends) routes through: strips whitespace, maps '_' to '-',
// lowercases.  Canonical names use '-'; spec files may write either.
std::string NormalizeName(const std::string& name);

const char* FtlPolicyKindName(FtlPolicyKind kind);
// Strict inverse of FtlPolicyKindName; accepts '_' for '-'.  nullopt on
// anything else.
std::optional<FtlPolicyKind> FtlPolicyKindFromName(const std::string& name);

// Strict inverse of CleaningPolicyName; accepts '_' for '-'.  This is the
// single name table both config_text and the spec parser route through.
std::optional<CleaningPolicy> CleaningPolicyFromName(const std::string& name);

// Per-policy event counters, surfaced through DeviceCounters into SimResult.
// All stay zero for the log-structured policy.
struct FtlCounters {
  std::uint64_t diff_writes = 0;       // host writes absorbed as page diffs
  std::uint64_t diff_merges = 0;       // merges forced by a full diff chain
  std::uint64_t diff_merge_reads = 0;  // reads that folded outstanding diffs
  std::uint64_t remap_table_hits = 0;  // lookups served by the remap table
  std::uint64_t remap_table_wraps = 0; // table wraparounds (map-page flushes)
};

// What servicing a one-block host write physically does to the card.
struct HostWritePlan {
  // Log appends to perform, in order (the block itself, and possibly a
  // policy metadata page such as a diff page or a map page).
  std::uint64_t appends[2] = {0, 0};
  std::uint32_t append_count = 0;
  // Bytes transferred over the host interface and programmed.
  std::uint64_t programmed_bytes = 0;
  // Device-internal bytes read before programming (e.g. merge of a full
  // diff chain), charged at the internal read rate.
  std::uint64_t merge_read_bytes = 0;
};

class FtlPolicy {
 public:
  virtual ~FtlPolicy() = default;

  virtual FtlPolicyKind kind() const = 0;
  virtual const char* name() const = 0;

  // -- Victim selection (SegmentManager::PickVictim) -----------------------
  // Higher score wins; the first candidate (lowest index) wins ties.  Called
  // only for sealed segments with at least one invalid slot, and only when
  // victim_order() is kScan: a kFewestLive or kOldestFilled policy is never
  // scored, so its ScoreVictim must order candidates exactly as its order's
  // index does.
  virtual double ScoreVictim(const VictimCandidate& candidate,
                             const VictimView& view) const = 0;
  // Whether the victim scan must pre-compute VictimView::max_erase_count.
  virtual bool NeedsMaxEraseCount() const { return false; }
  // kFewestLive only when ScoreVictim is a rising function of
  // blocks_per_segment - live alone; kOldestFilled only when it is
  // 1 / sequence.  Fixed for the policy's lifetime.
  virtual VictimOrder victim_order() const { return VictimOrder::kScan; }

  // -- Placement and cost hooks (LogFlashDevice) ---------------------------
  // Claims the never-accessed logical window [base, base + available) for
  // policy metadata pages (diff pages, map pages).  Policies clamp their
  // pools to a fraction of `available`; without an attached window they
  // degrade to identity plans.  Called once, before any I/O.
  virtual void AttachMetaWindow(std::uint64_t base, std::uint64_t available,
                                std::uint32_t block_bytes) {
    (void)base;
    (void)available;
    (void)block_bytes;
  }
  // Plans a one-block host write of `lba` (`mapped`: the block has a live
  // copy on flash).  The default is the identity plan.
  virtual HostWritePlan PlanHostWrite(std::uint64_t lba, bool mapped,
                                      std::uint32_t block_bytes);
  // Device-internal bytes needed on top of the host transfer to assemble
  // `lba` on read (0 for policies that store blocks whole).
  virtual std::uint64_t ExtraReadBytes(std::uint64_t lba) {
    (void)lba;
    return 0;
  }
  // The block was trimmed (file deletion); drop any per-block policy state.
  virtual void OnTrim(std::uint64_t lba) { (void)lba; }
  // Whether cleaning copies go to a segregated destination segment.
  // `configured` is the SimConfig request; policies may force it.
  virtual bool RouteCleaningSeparately(bool configured) const { return configured; }

  const FtlCounters& counters() const { return counters_; }

 protected:
  FtlCounters counters_;
};

// The paper's scheme, extracted: out-of-place log writes plus the classic
// victim scorers.  ScoreVictim reproduces the pre-FtlPolicy switch
// byte-for-byte (same expressions, same evaluation order).
class LogStructuredFtl : public FtlPolicy {
 public:
  explicit LogStructuredFtl(CleaningPolicy cleaner) : cleaner_(cleaner) {}

  FtlPolicyKind kind() const override { return FtlPolicyKind::kLogStructured; }
  const char* name() const override { return CleaningPolicyName(cleaner_); }
  double ScoreVictim(const VictimCandidate& candidate,
                     const VictimView& view) const override;
  bool NeedsMaxEraseCount() const override {
    return cleaner_ == CleaningPolicy::kWearAware;
  }
  VictimOrder victim_order() const override;
  CleaningPolicy cleaner() const { return cleaner_; }

 private:
  CleaningPolicy cleaner_;
};

// Page-differential logging (Kim/Whang/Song).  An overwrite of a mapped
// block appends a diff of `block_bytes / diff_divisor` bytes instead of the
// whole page; diffs from all blocks pack into shared diff pages drawn from
// the metadata window, and a physical diff-page append happens only when a
// page's worth of diff bytes has accumulated.  Once a block carries
// `max_diffs` outstanding diffs the next overwrite merges: the base page and
// its diffs are read back internally and the folded page is rewritten whole.
// Reads of a block with outstanding diffs pay the internal reads to fold
// them in (merge-on-read).  Victim selection delegates to the configured
// log cleaner.
class PageDiffFtl : public FtlPolicy {
 public:
  struct Params {
    std::uint32_t max_diffs = 3;     // outstanding diffs before a merge
    std::uint32_t diff_divisor = 4;  // diff size = block_bytes / divisor
    std::uint32_t pool_pages = 32;   // diff-page pool (cycled round-robin)
  };

  explicit PageDiffFtl(CleaningPolicy cleaner);
  PageDiffFtl(CleaningPolicy cleaner, const Params& params);

  FtlPolicyKind kind() const override { return FtlPolicyKind::kPageDiff; }
  const char* name() const override { return "page-diff"; }
  double ScoreVictim(const VictimCandidate& candidate,
                     const VictimView& view) const override;
  bool NeedsMaxEraseCount() const override {
    return cleaner_ == CleaningPolicy::kWearAware;
  }
  VictimOrder victim_order() const override;
  void AttachMetaWindow(std::uint64_t base, std::uint64_t available,
                        std::uint32_t block_bytes) override;
  HostWritePlan PlanHostWrite(std::uint64_t lba, bool mapped,
                              std::uint32_t block_bytes) override;
  std::uint64_t ExtraReadBytes(std::uint64_t lba) override;
  void OnTrim(std::uint64_t lba) override;

  std::uint32_t pool_pages() const { return pool_pages_; }

 private:
  CleaningPolicy cleaner_;
  Params params_;
  std::uint64_t meta_base_ = 0;
  std::uint32_t pool_pages_ = 0;   // 0 until a window is attached
  std::uint32_t pool_cursor_ = 0;
  std::uint64_t diff_unit_ = 1;    // bytes per diff, fixed at attach time
  std::uint64_t pending_diff_bytes_ = 0;
  // Outstanding diff count per host lba (< meta_base_).
  std::vector<std::uint8_t> diffs_;
};

// FAT-style block remapping per the flash-disk emulator.  Overwrites are
// redirected through a bounded in-RAM remap table; segments are reclaimed
// strictly in fill (FIFO) order, which is what a FAT remapper's sequential
// fold-and-erase does.  Every overwrite of a mapped block consumes a table
// entry; when the cursor wraps around the table the accumulated map updates
// are flushed as a map page from the metadata window.  Reads and writes of
// remapped blocks count remap_table_hits.
class FatRemapFtl : public FtlPolicy {
 public:
  struct Params {
    std::uint32_t table_entries = 1024;  // remap entries per flush cycle
    std::uint32_t map_pool_pages = 4;    // map-page pool (cycled round-robin)
  };

  FatRemapFtl();
  explicit FatRemapFtl(const Params& params);

  FtlPolicyKind kind() const override { return FtlPolicyKind::kFatRemap; }
  const char* name() const override { return "fat-remap"; }
  double ScoreVictim(const VictimCandidate& candidate,
                     const VictimView& view) const override;
  VictimOrder victim_order() const override { return VictimOrder::kOldestFilled; }
  void AttachMetaWindow(std::uint64_t base, std::uint64_t available,
                        std::uint32_t block_bytes) override;
  HostWritePlan PlanHostWrite(std::uint64_t lba, bool mapped,
                              std::uint32_t block_bytes) override;
  std::uint64_t ExtraReadBytes(std::uint64_t lba) override;
  void OnTrim(std::uint64_t lba) override;

  std::uint32_t table_cursor() const { return table_cursor_; }

 private:
  Params params_;
  std::uint64_t meta_base_ = 0;
  std::uint32_t pool_pages_ = 0;   // 0 until a window is attached
  std::uint32_t pool_cursor_ = 0;
  std::uint32_t table_cursor_ = 0;
  // Blocks currently redirected through the table (overwritten since start).
  std::vector<bool> remapped_;
};

// Owning factory: the policy a device builds from its configuration.
std::unique_ptr<FtlPolicy> MakeFtlPolicy(FtlPolicyKind kind, CleaningPolicy cleaner);

}  // namespace mobisim

#endif  // MOBISIM_SRC_FLASH_FTL_POLICY_H_
