#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

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

// Shared by Quantile/Quantiles so the two agree bit-for-bit.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double ReservoirSample::Quantile(double q) const {
  MOBISIM_CHECK(!released_);
  MOBISIM_CHECK(q >= 0.0 && q <= 1.0);
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return SortedQuantile(sorted, q);
}

std::vector<double> ReservoirSample::Quantiles(const std::vector<double>& qs) const {
  MOBISIM_CHECK(!released_);
  std::vector<double> out;
  if (values_.empty()) {
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
  // Selection instead of a full sort: ascending nth_element passes, each
  // restricted to the suffix the previous pass proved holds all later
  // ranks.  v[r] ends up the exact r-th order statistic — the same value a
  // sort would put there — so the result matches Quantile bit-for-bit.
  std::vector<double> v = values_;
  std::size_t begin = 0;
  for (const std::size_t r : ranks) {
    std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(begin),
                     v.begin() + static_cast<std::ptrdiff_t>(r), v.end());
    // Exclude the settled position from later passes so they cannot disturb
    // it.
    begin = r + 1;
  }
  out.reserve(qs.size());
  for (const double q : qs) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    out.push_back(v[lo] * (1.0 - frac) + v[hi] * frac);
  }
  return out;
}

Histogram::Histogram(double lo, double bucket_width, std::size_t bucket_count)
    : lo_(lo), width_(bucket_width), counts_(bucket_count, 0) {
  MOBISIM_CHECK(bucket_width > 0.0);
  MOBISIM_CHECK(bucket_count > 0);
}

void Histogram::Add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  const double offset = (value - lo_) / width_;
  if (offset >= static_cast<double>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(offset)];
}

double Histogram::Quantile(double q) const {
  MOBISIM_CHECK(q >= 0.0 && q <= 1.0);
  if (total_ == 0) {
    return lo_;
  }
  const double target = q * static_cast<double>(total_);
  double cumulative = static_cast<double>(underflow_);
  if (cumulative >= target) {
    return lo_;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double fraction = (target - cumulative) / static_cast<double>(counts_[i]);
      return bucket_lo(i) + fraction * width_;
    }
    cumulative = next;
  }
  return lo_ + width_ * static_cast<double>(counts_.size());
}

}  // namespace mobisim
