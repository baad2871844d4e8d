// Deterministic random number generation for workload synthesis.
//
// mobisim uses a self-contained PCG32 generator rather than <random> engines
// so that traces are bit-identical across standard library implementations.
// All distributions used by the workload generators live here too.
#ifndef MOBISIM_SRC_UTIL_RNG_H_
#define MOBISIM_SRC_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace mobisim {

// PCG32 (Melissa O'Neill's pcg32_random_r), a small fast statistically-good
// generator with a 64-bit state and 64-bit stream selector.
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  // Uniform 32-bit value.
  std::uint32_t NextU32();
  // Uniform 64-bit value.
  std::uint64_t NextU64();
  // Uniform double in [0, 1).
  double NextDouble();
  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
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
  bool Chance(double probability);

  // Creates an independent generator derived from this one (for giving each
  // workload component its own stream without coupling draw orders).
  Rng Fork();

 private:
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
  std::size_t IndexOf(double u) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  int guide_bits_ = 1;
  std::vector<std::uint32_t> guide_;
};

// Zipf(s) over {0, ..., n-1}: weight 1/(i+1)^s for rank i.  s = 0
// degenerates to uniform; larger s skews toward low ranks.
class ZipfDistribution : public DiscreteDistribution {
 public:
  ZipfDistribution(std::size_t n, double s);
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_RNG_H_
