#include "src/flash/ftl_policy.h"

#include <algorithm>
#include <cctype>

#include "src/util/check.h"

namespace mobisim {

// Canonical names use '-'; parsing tolerates '_' and case so spec files may
// write cost_benefit / PAGE_DIFF etc.  Unknown names stay rejected.
std::string NormalizeName(const std::string& name) {
  std::string v;
  v.reserve(name.size());
  for (const char c : name) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0 &&
        (v.empty() || v.back() != ' ')) {
      continue;  // names carry no interior spaces; trim everything
    }
    v.push_back(c == '_' ? '-'
                         : static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return v;
}

const char* CleaningPolicyName(CleaningPolicy policy) {
  switch (policy) {
    case CleaningPolicy::kGreedy:
      return "greedy";
    case CleaningPolicy::kCostBenefit:
      return "cost-benefit";
    case CleaningPolicy::kWearAware:
      return "wear-aware";
  }
  return "unknown";
}

std::optional<CleaningPolicy> CleaningPolicyFromName(const std::string& name) {
  const std::string v = NormalizeName(name);
  if (v == "greedy") {
    return CleaningPolicy::kGreedy;
  }
  if (v == "cost-benefit") {
    return CleaningPolicy::kCostBenefit;
  }
  if (v == "wear-aware") {
    return CleaningPolicy::kWearAware;
  }
  return std::nullopt;
}

const char* FtlPolicyKindName(FtlPolicyKind kind) {
  switch (kind) {
    case FtlPolicyKind::kLogStructured:
      return "log";
    case FtlPolicyKind::kPageDiff:
      return "page-diff";
    case FtlPolicyKind::kFatRemap:
      return "fat-remap";
  }
  return "unknown";
}

std::optional<FtlPolicyKind> FtlPolicyKindFromName(const std::string& name) {
  const std::string v = NormalizeName(name);
  if (v == "log") {
    return FtlPolicyKind::kLogStructured;
  }
  if (v == "page-diff") {
    return FtlPolicyKind::kPageDiff;
  }
  if (v == "fat-remap") {
    return FtlPolicyKind::kFatRemap;
  }
  return std::nullopt;
}

HostWritePlan FtlPolicy::PlanHostWrite(std::uint64_t lba, bool mapped,
                                       std::uint32_t block_bytes) {
  (void)mapped;
  HostWritePlan plan;
  plan.appends[0] = lba;
  plan.append_count = 1;
  plan.programmed_bytes = block_bytes;
  return plan;
}

namespace {

// The pre-FtlPolicy victim switch, verbatim: same expressions, same casts,
// same evaluation order, so extracted policies score byte-identically.
double LogCleanerScore(CleaningPolicy policy, const VictimCandidate& seg,
                       const VictimView& view) {
  switch (policy) {
    case CleaningPolicy::kGreedy:
      return static_cast<double>(view.blocks_per_segment - seg.live);
    case CleaningPolicy::kCostBenefit: {
      const double u =
          static_cast<double>(seg.live) / static_cast<double>(view.blocks_per_segment);
      const double age = static_cast<double>(view.fill_sequence - seg.sequence) + 1.0;
      return (1.0 - u) * age / (1.0 + u);
    }
    case CleaningPolicy::kWearAware: {
      // Greedy, plus a bonus for under-erased segments so cold data gets
      // rotated off low-wear areas.
      const double invalid = static_cast<double>(view.blocks_per_segment - seg.live);
      const double deficit =
          static_cast<double>(view.max_erase_count - seg.erase_count) /
          static_cast<double>(std::max<std::uint32_t>(view.max_erase_count, 1));
      return invalid + 0.3 * deficit * static_cast<double>(view.blocks_per_segment);
    }
  }
  return 0.0;
}

// Greedy scores the invalid-slot count alone; cost-benefit and wear-aware
// also weigh age and erase counts, so only greedy can be bucketed.
VictimOrder LogCleanerOrder(CleaningPolicy policy) {
  return policy == CleaningPolicy::kGreedy ? VictimOrder::kFewestLive : VictimOrder::kScan;
}

}  // namespace

double LogStructuredFtl::ScoreVictim(const VictimCandidate& candidate,
                                     const VictimView& view) const {
  return LogCleanerScore(cleaner_, candidate, view);
}

VictimOrder LogStructuredFtl::victim_order() const { return LogCleanerOrder(cleaner_); }

// -- PageDiffFtl -----------------------------------------------------------

PageDiffFtl::PageDiffFtl(CleaningPolicy cleaner) : PageDiffFtl(cleaner, Params()) {}

PageDiffFtl::PageDiffFtl(CleaningPolicy cleaner, const Params& params)
    : cleaner_(cleaner), params_(params) {
  MOBISIM_CHECK(params.max_diffs > 0);
  MOBISIM_CHECK(params.diff_divisor > 0);
}

double PageDiffFtl::ScoreVictim(const VictimCandidate& candidate,
                                const VictimView& view) const {
  return LogCleanerScore(cleaner_, candidate, view);
}

VictimOrder PageDiffFtl::victim_order() const { return LogCleanerOrder(cleaner_); }

void PageDiffFtl::AttachMetaWindow(std::uint64_t base, std::uint64_t available,
                                   std::uint32_t block_bytes) {
  meta_base_ = base;
  // Claim at most a quarter of the spare window so the cleaner's slack
  // segments stay effective even on tiny cards.
  pool_pages_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params_.pool_pages, available / 4));
  diff_unit_ = std::max<std::uint64_t>(1, block_bytes / params_.diff_divisor);
  diffs_.assign(base, 0);
}

HostWritePlan PageDiffFtl::PlanHostWrite(std::uint64_t lba, bool mapped,
                                         std::uint32_t block_bytes) {
  HostWritePlan plan;
  if (pool_pages_ == 0 || !mapped || lba >= diffs_.size()) {
    // No diff pool (unattached window) or no base page to diff against:
    // classic full-page append.
    plan.appends[plan.append_count++] = lba;
    plan.programmed_bytes = block_bytes;
    return plan;
  }
  const std::uint64_t diff_bytes = diff_unit_;
  if (diffs_[lba] < params_.max_diffs) {
    // Absorb the overwrite as a diff.  The base page stays mapped; the diff
    // lands in a shared diff page that is physically appended only once a
    // page's worth of diff bytes has accumulated.
    ++counters_.diff_writes;
    ++diffs_[lba];
    pending_diff_bytes_ += diff_bytes;
    plan.programmed_bytes = diff_bytes;
    if (pending_diff_bytes_ >= block_bytes) {
      pending_diff_bytes_ -= block_bytes;
      plan.appends[plan.append_count++] = meta_base_ + pool_cursor_;
      pool_cursor_ = (pool_cursor_ + 1) % pool_pages_;
    }
    return plan;
  }
  // Chain full: merge.  Read the base page and its diffs back internally and
  // rewrite the folded page whole.
  ++counters_.diff_merges;
  plan.merge_read_bytes =
      block_bytes + static_cast<std::uint64_t>(diffs_[lba]) * diff_bytes;
  diffs_[lba] = 0;
  plan.appends[plan.append_count++] = lba;
  plan.programmed_bytes = block_bytes;
  return plan;
}

std::uint64_t PageDiffFtl::ExtraReadBytes(std::uint64_t lba) {
  if (lba >= diffs_.size() || diffs_[lba] == 0) {
    return 0;
  }
  ++counters_.diff_merge_reads;
  return static_cast<std::uint64_t>(diffs_[lba]) * diff_unit_;
}

void PageDiffFtl::OnTrim(std::uint64_t lba) {
  if (lba < diffs_.size()) {
    diffs_[lba] = 0;
  }
}

// -- FatRemapFtl -----------------------------------------------------------

FatRemapFtl::FatRemapFtl() : FatRemapFtl(Params()) {}

FatRemapFtl::FatRemapFtl(const Params& params) : params_(params) {
  MOBISIM_CHECK(params.table_entries > 0);
}

double FatRemapFtl::ScoreVictim(const VictimCandidate& candidate,
                                const VictimView& view) const {
  (void)view;
  // FIFO fold order: the oldest sealed segment (smallest fill stamp) scores
  // highest.  Stamps start at 1 and are unique, and distinct stamps give
  // distinct reciprocals (well past 2^26 seals), so the smallest stamp is
  // the scan's unique winner -- the order victim_order() declares, so
  // SegmentManager never calls this.
  return 1.0 / static_cast<double>(candidate.sequence);
}

void FatRemapFtl::AttachMetaWindow(std::uint64_t base, std::uint64_t available,
                                   std::uint32_t block_bytes) {
  (void)block_bytes;
  meta_base_ = base;
  pool_pages_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params_.map_pool_pages, available / 4));
  remapped_.assign(base, false);
}

HostWritePlan FatRemapFtl::PlanHostWrite(std::uint64_t lba, bool mapped,
                                         std::uint32_t block_bytes) {
  HostWritePlan plan;
  plan.appends[plan.append_count++] = lba;
  plan.programmed_bytes = block_bytes;
  if (mapped && lba < remapped_.size()) {
    // Overwriting a live block redirects it through the remap table.
    ++counters_.remap_table_hits;
    remapped_[lba] = true;
    ++table_cursor_;
    if (table_cursor_ >= params_.table_entries) {
      // Table wraparound: persist the accumulated map updates.
      table_cursor_ = 0;
      ++counters_.remap_table_wraps;
      if (pool_pages_ > 0) {
        plan.appends[plan.append_count++] = meta_base_ + pool_cursor_;
        pool_cursor_ = (pool_cursor_ + 1) % pool_pages_;
        plan.programmed_bytes += block_bytes;
      }
    }
  }
  return plan;
}

std::uint64_t FatRemapFtl::ExtraReadBytes(std::uint64_t lba) {
  if (lba < remapped_.size() && remapped_[lba]) {
    // The lookup goes through the in-RAM table: counted, but free of I/O.
    ++counters_.remap_table_hits;
  }
  return 0;
}

void FatRemapFtl::OnTrim(std::uint64_t lba) {
  if (lba < remapped_.size()) {
    remapped_[lba] = false;
  }
}

std::unique_ptr<FtlPolicy> MakeFtlPolicy(FtlPolicyKind kind, CleaningPolicy cleaner) {
  switch (kind) {
    case FtlPolicyKind::kLogStructured:
      return std::make_unique<LogStructuredFtl>(cleaner);
    case FtlPolicyKind::kPageDiff:
      return std::make_unique<PageDiffFtl>(cleaner);
    case FtlPolicyKind::kFatRemap:
      return std::make_unique<FatRemapFtl>();
  }
  MOBISIM_CHECK(false && "unknown FtlPolicyKind");
  return nullptr;
}

}  // namespace mobisim
