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

  int guide_bits = 1;
  while (guide_bits < 16 && (std::size_t{1} << guide_bits) < cdf_.size()) {
    ++guide_bits;
  }
  guide_scale_ = std::ldexp(1.0, guide_bits);
  const std::size_t buckets = std::size_t{1} << guide_bits;
  guide_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t g = 0; g <= buckets; ++g) {
    const double edge = std::ldexp(static_cast<double>(g), -guide_bits);
    while (cdf_[i] < edge) {
      ++i;  // stops at the last index at the latest: cdf_.back() == 1.0
    }
    guide_[g] = static_cast<std::uint32_t>(i);
  }
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

namespace {

constexpr std::uint64_t kBitsEnd = std::uint64_t{1} << 53;  // m ranges over [0, 2^53)

}  // namespace

GeometricDistribution::GeometricDistribution(double mean)
    : constant_(mean <= 1.0), log_q_(constant_ ? 0.0 : std::log(1.0 - 1.0 / mean)) {
  MOBISIM_DCHECK(mean >= 1.0);
  if (constant_) {
    return;
  }
  // The first m with Rank(m) >= k: start where 1 - u = q^k, i.e.
  // m = 2^53 (1 - q^k), which is within a few units of the boundary, then
  // walk to it.  Rank is evaluated exactly as a draw evaluates it.
  for (std::size_t k = 1; k <= kMaxBoundaries && Rank(kBitsEnd - 1) >= static_cast<double>(k);
       ++k) {
    const double tail = std::ldexp(std::exp(static_cast<double>(k) * log_q_), 53);
    std::uint64_t m = kBitsEnd - 1;
    if (tail >= 1.0) {
      m = kBitsEnd - std::min<std::uint64_t>(kBitsEnd, static_cast<std::uint64_t>(tail));
    }
    if (count_ > 0) {
      m = std::max(m, boundaries_[count_ - 1]);
    }
    while (Rank(m) < static_cast<double>(k)) {
      ++m;  // ends by m = 2^53 - 1, whose rank reaches k
    }
    while (m > 0 && Rank(m - 1) >= static_cast<double>(k)) {
      --m;
    }
    boundaries_[count_++] = m;
  }
  // guide_[g]: the boundaries below bucket g's first m.  The last entry
  // (bucket 2^10, past every m) counts them all.
  std::size_t below = 0;
  for (std::size_t g = 0; g < guide_.size(); ++g) {
    while (below < count_ && boundaries_[below] < (std::uint64_t{g} << kGuideShift)) {
      ++below;
    }
    guide_[g] = static_cast<std::uint8_t>(below);
  }
}

double GeometricDistribution::Rank(std::uint64_t m) const {
  const double u = static_cast<double>(m) * (1.0 / 9007199254740992.0);
  return std::floor(std::log(1.0 - u) / log_q_);
}

std::uint32_t GeometricDistribution::FromBitsByLog(std::uint64_t m) const {
  if (constant_) {
    return 1;
  }
  return 1 + static_cast<std::uint32_t>(std::min(Rank(m), 4095.0));
}

}  // namespace mobisim
