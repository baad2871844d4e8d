#include "src/util/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/util/check.h"

namespace mobisim {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ == 0) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

ReservoirSample::ReservoirSample(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_state_(seed * 6364136223846793005ULL + 1442695040888963407ULL) {
  MOBISIM_CHECK(capacity > 0);
}

void ReservoirSample::Release() {
  std::vector<double>().swap(values_);
  released_ = true;
}

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// Unsigned order of the keys is the total order of the doubles: -0.0 sorts
// just before +0.0, which `<` leaves tied (the simulator records no -0.0,
// and no NaN).
std::uint64_t OrderKey(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double FromOrderKey(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit : ~key);
}

constexpr int kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::size_t kSortBelow = 64;

// Stores in out[i] the key of rank ranks[i] (ascending) among `keys`
// (clobbered), whose smallest is lo and largest hi.  One level of an MSD
// radix select: the keys fall into 256 buckets, each 2^shift keys wide from
// lo.  One pass tallies each bucket's size, its smallest and largest key
// and how many keys equal each of those two.  A rank among the keys equal
// to its bucket's smallest or largest is answered from the tally (so is
// any rank in a bucket of one distinct value); the keys of any other
// bucket holding ranks are gathered (one branch-free pass) and selected
// from recursively, 8 bits narrower.
void RadixSelect(std::vector<std::uint64_t>& keys, std::uint64_t lo, std::uint64_t hi,
                 const std::size_t* ranks, std::uint64_t* out, std::size_t count) {
  if (lo == hi) {
    std::fill(out, out + count, lo);
    return;
  }
  if (keys.size() < kSortBelow) {
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = keys[ranks[i]];
    }
    return;
  }
  const int shift = std::max(0, static_cast<int>(std::bit_width(hi - lo)) - kDigitBits);
  const auto digit = [lo, shift](std::uint64_t key) { return (key - lo) >> shift; };
  struct Tally {
    std::uint32_t count = 0;
    std::uint32_t lo_count = 0;
    std::uint32_t hi_count = 0;
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
  };
  std::array<Tally, kBuckets> tally{};
  for (const std::uint64_t key : keys) {
    Tally& t = tally[digit(key)];
    ++t.count;
    t.lo_count = key < t.lo ? 1 : t.lo_count + (key == t.lo ? 1 : 0);
    t.lo = std::min(t.lo, key);
    t.hi_count = key > t.hi ? 1 : t.hi_count + (key == t.hi ? 1 : 0);
    t.hi = std::max(t.hi, key);
  }
  std::array<std::size_t, kBuckets + 1> start{};
  for (std::size_t d = 0; d < kBuckets; ++d) {
    start[d + 1] = start[d] + tally[d].count;
  }
  std::vector<std::uint64_t> bucket;
  std::vector<std::size_t> sub;
  for (std::size_t r = 0; r < count;) {
    std::size_t d = 0;
    while (start[d + 1] <= ranks[r]) {
      ++d;
    }
    std::size_t next = r + 1;
    while (next < count && ranks[next] < start[d + 1]) {
      ++next;
    }
    std::size_t end = next;
    const Tally& t = tally[d];
    while (r < end && ranks[r] < start[d] + t.lo_count) {
      out[r++] = t.lo;
    }
    while (r < end && ranks[end - 1] >= start[d + 1] - t.hi_count) {
      out[--end] = t.hi;
    }
    if (r < end) {
      bucket.resize(t.count);
      std::uint64_t discard = 0;
      std::size_t k = 0;
      for (const std::uint64_t key : keys) {
        const bool in = digit(key) == d;
        *(in ? bucket.data() + k : &discard) = key;
        k += in ? 1 : 0;
      }
      sub.assign(ranks + r, ranks + end);
      for (std::size_t& rank : sub) {
        rank -= start[d];
      }
      RadixSelect(bucket, t.lo, t.hi, sub.data(), out + r, end - r);
    }
    r = next;
  }
}

}  // namespace

double ReservoirSample::Quantile(double q) const { return Quantiles({q})[0]; }

std::vector<double> ReservoirSample::Quantiles(const std::vector<double>& qs) const {
  MOBISIM_CHECK(!released_);
  std::vector<double> out;
  if (values_.empty()) {
    for (const double q : qs) {
      MOBISIM_CHECK(q >= 0.0 && q <= 1.0);
    }
    out.assign(qs.size(), 0.0);
    return out;
  }
  const std::size_t n = values_.size();
  // Every rank the interpolation below will read.
  std::vector<std::size_t> ranks;
  ranks.reserve(qs.size() * 2);
  for (const double q : qs) {
    MOBISIM_CHECK(q >= 0.0 && q <= 1.0);
    const auto lo = static_cast<std::size_t>(q * static_cast<double>(n - 1));
    ranks.push_back(lo);
    ranks.push_back(std::min(lo + 1, n - 1));
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  // An exact selection: each selected key is the one a sort would put at
  // that rank, so the interpolation reads what a sorted copy would give.
  std::vector<std::uint64_t> keys(n);
  std::uint64_t lo_key = ~std::uint64_t{0};
  std::uint64_t hi_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = OrderKey(values_[i]);
    lo_key = std::min(lo_key, keys[i]);
    hi_key = std::max(hi_key, keys[i]);
  }
  std::vector<std::uint64_t> selected(ranks.size());
  RadixSelect(keys, lo_key, hi_key, ranks.data(), selected.data(), ranks.size());
  const auto at = [&](std::size_t rank) {
    return FromOrderKey(
        selected[static_cast<std::size_t>(std::lower_bound(ranks.begin(), ranks.end(), rank) -
                                          ranks.begin())]);
  };
  out.reserve(qs.size());
  for (const double q : qs) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    out.push_back(at(lo) * (1.0 - frac) + at(hi) * frac);
  }
  return out;
}

}  // namespace mobisim
