#include "src/util/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace mobisim {

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  NextU32();
  state_ += seed;
  NextU32();
}

std::uint32_t Rng::NextU32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const std::uint32_t xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

std::uint64_t Rng::NextU64() {
  return (static_cast<std::uint64_t>(NextU32()) << 32) | NextU32();
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::Uniform(double lo, double hi) {
  MOBISIM_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  MOBISIM_DCHECK(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {
    return static_cast<std::int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
  std::uint64_t value = NextU64();
  while (value >= limit) {
    value = NextU64();
  }
  return lo + static_cast<std::int64_t>(value % range);
}

double Rng::Exponential(double mean) {
  MOBISIM_DCHECK(mean > 0.0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 1e-300;
  }
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 1e-300;
  }
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

bool Rng::Chance(double probability) { return NextDouble() < probability; }

Rng Rng::Fork() { return Rng(NextU64(), NextU64() >> 1); }

DiscreteDistribution::DiscreteDistribution(std::vector<double> weights) {
  MOBISIM_CHECK(!weights.empty());
  MOBISIM_CHECK(weights.size() <= std::numeric_limits<std::uint32_t>::max());
  cdf_ = std::move(weights);
  double total = 0.0;
  for (double& w : cdf_) {
    MOBISIM_CHECK(w >= 0.0);
    total += w;
    w = total;
  }
  MOBISIM_CHECK(total > 0.0);
  for (double& w : cdf_) {
    w /= total;
  }
  cdf_.back() = 1.0;

  while (guide_bits_ < 16 && (std::size_t{1} << guide_bits_) < cdf_.size()) {
    ++guide_bits_;
  }
  const std::size_t buckets = std::size_t{1} << guide_bits_;
  guide_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t g = 0; g <= buckets; ++g) {
    const double edge = std::ldexp(static_cast<double>(g), -guide_bits_);
    while (cdf_[i] < edge) {
      ++i;  // stops at the last index at the latest: cdf_.back() == 1.0
    }
    guide_[g] = static_cast<std::uint32_t>(i);
  }
}

std::size_t DiscreteDistribution::IndexOf(double u) const {
  MOBISIM_DCHECK(u >= 0.0 && u < 1.0);
  // Scaling by a power of two is exact, so g is floor(u * 2^b) exactly.
  const auto g = static_cast<std::size_t>(std::ldexp(u, guide_bits_));
  const auto first = cdf_.begin() + guide_[g];
  const auto last = cdf_.begin() + guide_[g + 1];
  return static_cast<std::size_t>(std::lower_bound(first, last, u) - cdf_.begin());
}

namespace {

std::vector<double> ZipfWeights(std::size_t n, double s) {
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return weights;
}

}  // namespace

ZipfDistribution::ZipfDistribution(std::size_t n, double s)
    : DiscreteDistribution(ZipfWeights(n, s)) {}

}  // namespace mobisim
