// Deterministic random number generation for workload synthesis.
//
// mobisim uses a self-contained PCG32 generator rather than <random> engines
// so that traces are bit-identical across standard library implementations.
// All distributions used by the workload generators live here too.  The
// per-draw paths are inline: trace generation makes several draws a record.
#ifndef MOBISIM_SRC_UTIL_RNG_H_
#define MOBISIM_SRC_UTIL_RNG_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/check.h"

namespace mobisim {

// PCG32 (Melissa O'Neill's pcg32_random_r), a small fast statistically-good
// generator with a 64-bit state and 64-bit stream selector.
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  // Uniform 32-bit value.
  std::uint32_t NextU32() {
    const std::uint64_t old = state_;
    state_ = old * kMultiplier + inc_;
    return Output(old);
  }
  // Uniform 64-bit value: the next NextU32 in the high word, the one after
  // it in the low word.  Both steps are taken from the current state (the
  // second as s2 = a^2 s0 + (a + 1) c), so the two outputs do not wait on
  // each other.
  std::uint64_t NextU64() {
    const std::uint64_t s0 = state_;
    const std::uint64_t s1 = s0 * kMultiplier + inc_;
    state_ = s0 * (kMultiplier * kMultiplier) + (kMultiplier + 1) * inc_;
    return (static_cast<std::uint64_t>(Output(s0)) << 32) | Output(s1);
  }
  // Uniform double in [0, 1): the top 53 bits of NextU64, times 2^-53.
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0); }
  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    MOBISIM_DCHECK(lo <= hi);
    return lo + (hi - lo) * NextDouble();
  }
  // Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);
  // Exponential with the given mean (> 0).
  double Exponential(double mean);
  // Standard normal via Box-Muller (no cached spare: stays stateless).
  double Normal(double mean, double stddev);
  // Log-normal parameterized directly by the *target* mean and sigma of the
  // underlying normal; convenience for heavy-tailed inter-arrival times.
  double LogNormal(double mu, double sigma);
  // Bernoulli trial.
  bool Chance(double probability) { return NextDouble() < probability; }

  // Creates an independent generator derived from this one (for giving each
  // workload component its own stream without coupling draw orders).
  Rng Fork();

 private:
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

  // PCG's XSH-RR output function of a pre-step state.
  static std::uint32_t Output(std::uint64_t old) {
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
  }

  std::uint64_t state_;
  std::uint64_t inc_;
};

// Weighted discrete choice over a fixed set of weights: a precomputed CDF
// searched by binary search, narrowed first by a guide table.
//
// The guide table has 2^b + 1 entries, b = min(16, ceil(log2 n)) >= 1, and
// guide_[g] is the first CDF index whose value is >= g / 2^b.  For u in
// [0, 1) with g = floor(u * 2^b), the first index whose CDF value is >= u
// lies in [guide_[g], guide_[g + 1]]: every index below guide_[g] has a CDF
// value < g / 2^b <= u, and cdf_[guide_[g + 1]] >= (g + 1) / 2^b > u.  The
// narrowed search therefore returns exactly what a search over the whole
// CDF returns.
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(std::vector<double> weights);

  std::size_t Sample(Rng& rng) const { return IndexOf(rng.NextDouble()); }
  // The first index whose CDF value is >= u, for u in [0, 1).
  std::size_t IndexOf(double u) const {
    MOBISIM_DCHECK(u >= 0.0 && u < 1.0);
    // Scaling by a power of two is exact, so g is floor(u * 2^b) exactly.
    const auto g = static_cast<std::size_t>(u * guide_scale_);
    const auto first = cdf_.begin() + guide_[g];
    const auto last = cdf_.begin() + guide_[g + 1];
    return static_cast<std::size_t>(std::lower_bound(first, last, u) - cdf_.begin());
  }
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  double guide_scale_ = 2.0;  // 2^b
  std::vector<std::uint32_t> guide_;
};

// Zipf(s) over {0, ..., n-1}: weight 1/(i+1)^s for rank i.  s = 0
// degenerates to uniform; larger s skews toward low ranks.
class ZipfDistribution : public DiscreteDistribution {
 public:
  ZipfDistribution(std::size_t n, double s);
};

// Shifted geometric with a fixed mean (>= 1) over {1, 2, ...}, drawn by
// inversion from the 53 bits m behind NextDouble's u = m / 2^53:
//
//   k(m) = floor(log(1 - u) / log(1 - 1/mean)),  draw = 1 + min(k, 4095).
//
// k(m) is non-decreasing in m, so for each k = 1, 2, ... there is a first m
// at which it reaches k.  The constructor finds up to 64 of these
// boundaries exactly, evaluating the expression itself at a guess from
// exp(k log q) and walking to the first m that reaches k.  A draw then
// counts the boundaries at or below m; past the table it evaluates the
// expression.  Either way it returns exactly what the expression returns.
// A mean <= 1 draws 1 and consumes no randomness.
//
// The count starts from a guide on the top 10 bits of m: guide_[g] is the
// number of boundaries below g * 2^43, the first m of bucket g.  Every
// boundary counted from there lies inside m's bucket, and most buckets hold
// none, so the count usually takes no compare that depends on m.
class GeometricDistribution {
 public:
  explicit GeometricDistribution(double mean);

  std::uint32_t Sample(Rng& rng) const {
    if (constant_) {
      return 1;
    }
    return FromBits(rng.NextU64() >> 11);
  }
  // The draw for the 53-bit value m: the boundary table, then the log.
  std::uint32_t FromBits(std::uint64_t m) const {
    MOBISIM_DCHECK(m < (std::uint64_t{1} << 53));
    const std::size_t g = static_cast<std::size_t>(m >> kGuideShift);
    std::size_t k = guide_[g];
    const std::size_t end = guide_[g + 1];
    while (k < end && m >= boundaries_[k]) {
      ++k;
    }
    if (k < count_) {
      return 1 + static_cast<std::uint32_t>(k);
    }
    return FromBitsByLog(m);
  }
  // The draw for m by the log expression alone (the table's reference).
  std::uint32_t FromBitsByLog(std::uint64_t m) const;
  // boundaries()[j] is the first m with k(m) >= j + 1.
  std::span<const std::uint64_t> boundaries() const { return {boundaries_.data(), count_}; }

 private:
  static constexpr std::size_t kMaxBoundaries = 64;
  static constexpr int kGuideBits = 10;
  static constexpr int kGuideShift = 53 - kGuideBits;

  double Rank(std::uint64_t m) const;  // k(m), before the cap

  bool constant_;
  double log_q_;
  // Held in place: a generator builds two of these per trace, and a heap
  // block each would sit between the trace's large buffers.
  std::array<std::uint64_t, kMaxBoundaries> boundaries_{};
  std::size_t count_ = 0;
  std::array<std::uint8_t, (std::size_t{1} << kGuideBits) + 1> guide_{};
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_RNG_H_
