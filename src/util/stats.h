// Streaming statistics used throughout the simulator for response times,
// energy, inter-arrival gaps, and erase counts.
#ifndef MOBISIM_SRC_UTIL_STATS_H_
#define MOBISIM_SRC_UTIL_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mobisim {

// Welford-style accumulator: O(1) per sample, numerically stable mean and
// standard deviation, plus min/max/sum.  Add is inline — it runs once per
// simulated operation, several times over.
class RunningStats {
 public:
  RunningStats() = default;

  void Add(double value) {
    ++count_;
    sum_ += value;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  // Merges another accumulator into this one (parallel composition).
  void Merge(const RunningStats& other);
  void Reset();

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double sum() const { return sum_; }
  // Population variance/stddev (matches how the paper reports sigma over all
  // simulated operations).
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Bounded uniform reservoir sample for percentile estimation over streams of
// unknown range (latencies span five orders of magnitude, so fixed histogram
// buckets fit poorly).  Deterministic: the replacement choices come from a
// seeded PCG32.  The sample grows with the stream, so an empty reservoir
// (say, in a default-constructed SimResult) holds no memory.
class ReservoirSample {
 public:
  explicit ReservoirSample(std::size_t capacity = 65536, std::uint64_t seed = 0x5eed);

  void Add(double value) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
      return;
    }
    // Vitter's algorithm R with a splitmix-style generator.
    rng_state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = rng_state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const std::uint64_t slot = z % seen_;
    if (slot < values_.size()) {
      values_[slot] = value;
    }
  }
  std::uint64_t count() const { return seen_; }
  std::size_t sample_size() const { return values_.size(); }
  // Frees the sample once its quantiles have been read (the sweep runner
  // keeps results whose percentiles already sit in the exported row).
  // count() is kept; Quantile and Quantiles fail a check from then on.
  void Release();
  // Quantile estimate, q in [0, 1]; 0 with no data.  The two order
  // statistics around q * (size - 1) are interpolated linearly.
  double Quantile(double q) const;
  // All of `qs` from one exact radix selection over the reservoir, which
  // reads each order statistic a sort would (bit for bit; -0.0 ranks below
  // +0.0).  Each element equals Quantile(qs[i]); callers needing several
  // percentiles (the p50/p95/p99 result columns) pay one selection.
  std::vector<double> Quantiles(const std::vector<double>& qs) const;

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
  std::uint64_t rng_state_;
  bool released_ = false;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_STATS_H_
