// Unit tests for src/util: RNG determinism and distribution moments,
// streaming statistics, histograms, energy metering, table printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <sstream>
#include <vector>

#include "src/util/check.h"
#include "src/util/energy_meter.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(UsFromMs(1.5), 1500);
  EXPECT_EQ(UsFromSec(2.0), 2000000);
  EXPECT_DOUBLE_EQ(MsFromUs(2500), 2.5);
  EXPECT_DOUBLE_EQ(SecFromUs(1500000), 1.5);
}

TEST(SimTimeTest, TransferTime) {
  // 1024 bytes at 1 KB/s = 1 second.
  EXPECT_EQ(TransferTimeUs(1024, 1.0), kUsPerSec);
  EXPECT_EQ(TransferTimeUs(0, 100.0), 0);
  EXPECT_EQ(TransferTimeUs(1024, 0.0), 0);
  // 4 KB at 2125 KB/s ~ 1.88 ms.
  const SimTime t = TransferTimeUs(4096, 2125.0);
  EXPECT_NEAR(static_cast<double>(t), 1882.0, 2.0);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.NextU32() == b.NextU32() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.Exponential(3.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

// The draw order every trace depends on: NextU64's high word is the first
// step.
TEST(RngTest, DrawOrderIsPinned) {
  Rng rng(123);
  EXPECT_EQ(rng.NextU64(), 0x151389e39230d53fULL);
  EXPECT_EQ(rng.NextU64(), 0x0879145c3a108949ULL);
}

// NextU64 takes two PCG steps at once; it must match two sequential steps,
// high word first, and leave the state where they leave it.
TEST(RngTest, NextU64IsTwoSequentialSteps) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 23ULL, 0xffffffffffffffffULL}) {
    Rng fast(seed, seed * 7 + 3);
    Rng slow(seed, seed * 7 + 3);
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t high = slow.NextU32();
      const std::uint64_t low = slow.NextU32();
      ASSERT_EQ(fast.NextU64(), (high << 32) | low) << "seed " << seed << " draw " << i;
      if (i % 3 == 0) {
        ASSERT_EQ(fast.NextU32(), slow.NextU32());
      }
    }
  }
}

TEST(ZipfTest, UniformWhenSkewZero) {
  Rng rng(29);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(ZipfTest, SkewFavoursLowRanks) {
  Rng rng(31);
  ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(DiscreteTest, RespectsWeights) {
  Rng rng(37);
  DiscreteDistribution dist({1.0, 3.0});
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ones += dist.Sample(rng) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

// The CDF DiscreteDistribution builds, recomputed independently: running
// sums divided by the total, the last entry pinned to 1.
std::vector<double> ReferenceCdf(const std::vector<double>& weights) {
  std::vector<double> cdf(weights.size());
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    cdf[i] = total;
  }
  for (double& v : cdf) {
    v /= total;
  }
  cdf.back() = 1.0;
  return cdf;
}

// IndexOf must agree with a lower_bound over the whole CDF at u = 0, at
// every guide-table edge g / 2^b and just below each edge.
void ExpectIndexOfMatchesFullSearch(const DiscreteDistribution& dist,
                                    const std::vector<double>& weights) {
  const std::vector<double> cdf = ReferenceCdf(weights);
  auto reference = [&](double u) {
    return static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  int bits = 1;
  while (bits < 16 && (std::size_t{1} << bits) < weights.size()) {
    ++bits;
  }
  ASSERT_EQ(dist.IndexOf(0.0), reference(0.0));
  for (std::size_t g = 1; g < (std::size_t{1} << bits); ++g) {
    const double edge = std::ldexp(static_cast<double>(g), -bits);
    ASSERT_EQ(dist.IndexOf(edge), reference(edge)) << "n=" << weights.size() << " g=" << g;
    const double below = std::nextafter(edge, 0.0);
    ASSERT_EQ(dist.IndexOf(below), reference(below)) << "n=" << weights.size() << " g=" << g;
  }
  const double top = std::nextafter(1.0, 0.0);
  ASSERT_EQ(dist.IndexOf(top), reference(top));
}

TEST(DiscreteTest, GuideTableMatchesFullSearchForZipf) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{1} << 16, (std::size_t{1} << 16) + 1,
                              std::size_t{1000000}}) {
    for (const double s : {0.0, 0.5, 1.0, 3.0, 40.0}) {
      std::vector<double> weights(n);
      for (std::size_t i = 0; i < n; ++i) {
        weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
      }
      const ZipfDistribution zipf(n, s);
      ASSERT_EQ(zipf.size(), n);
      ExpectIndexOfMatchesFullSearch(zipf, weights);
    }
  }
}

TEST(DiscreteTest, GuideTableMatchesFullSearchWithZeroWeights) {
  const std::vector<std::vector<double>> cases = {
      {0.0, 1.0},
      {1.0, 0.0},
      {0.0, 0.0, 3.0, 0.0, 1.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0},
  };
  for (const std::vector<double>& weights : cases) {
    ExpectIndexOfMatchesFullSearch(DiscreteDistribution(weights), weights);
  }
  // Sparse mass over many entries: most guide buckets straddle long runs of
  // equal CDF values.
  Rng rng(41);
  std::vector<double> sparse(100000, 0.0);
  for (double& w : sparse) {
    if (rng.Chance(0.01)) {
      w = rng.Uniform(0.0, 5.0);
    }
  }
  ExpectIndexOfMatchesFullSearch(DiscreteDistribution(sparse), sparse);
}

TEST(DiscreteTest, SampleIsIndexOfNextDouble) {
  const ZipfDistribution zipf(5000, 0.9);
  Rng a(43);
  Rng b(43);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(zipf.Sample(a), zipf.IndexOf(b.NextDouble()));
  }
}

TEST(DiscreteTest, NanZipfSkewFailsCheck) {
  EXPECT_THROW(ZipfDistribution(10, std::nan("")), SimError);
  EXPECT_THROW(DiscreteDistribution({1.0, -1.0}), SimError);
  EXPECT_THROW(DiscreteDistribution({0.0, 0.0}), SimError);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(0, 10);
    all.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), all.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(ReservoirSampleTest, ExactWhenUnderCapacity) {
  ReservoirSample res(100);
  for (int i = 0; i <= 10; ++i) {
    res.Add(static_cast<double>(i));
  }
  EXPECT_EQ(res.count(), 11u);
  EXPECT_DOUBLE_EQ(res.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(res.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(res.Quantile(1.0), 10.0);
}

TEST(ReservoirSampleTest, EmptyIsZero) {
  ReservoirSample res(16);
  EXPECT_DOUBLE_EQ(res.Quantile(0.5), 0.0);
  EXPECT_EQ(res.count(), 0u);
}

TEST(ReservoirSampleTest, ApproximatesLargeStream) {
  ReservoirSample res(4096);
  Rng rng(99);
  for (int i = 0; i < 200000; ++i) {
    res.Add(rng.Uniform(0.0, 100.0));
  }
  EXPECT_EQ(res.count(), 200000u);
  EXPECT_EQ(res.sample_size(), 4096u);
  EXPECT_NEAR(res.Quantile(0.5), 50.0, 4.0);
  EXPECT_NEAR(res.Quantile(0.95), 95.0, 4.0);
}

TEST(ReservoirSampleTest, Deterministic) {
  ReservoirSample a(64);
  ReservoirSample b(64);
  Rng rng_a(5);
  Rng rng_b(5);
  for (int i = 0; i < 10000; ++i) {
    a.Add(rng_a.NextDouble());
    b.Add(rng_b.NextDouble());
  }
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), b.Quantile(0.5));
}

TEST(ReservoirSampleTest, ReleaseKeepsCountAndFreesTheSample) {
  ReservoirSample res(64);
  EXPECT_EQ(res.sample_size(), 0u);
  for (int i = 0; i < 1000; ++i) {
    res.Add(static_cast<double>(i));
  }
  EXPECT_EQ(res.sample_size(), 64u);
  res.Release();
  EXPECT_EQ(res.count(), 1000u);
  EXPECT_EQ(res.sample_size(), 0u);
  // A copy of a released reservoir stays released.
  const ReservoirSample copy = res;
  EXPECT_EQ(copy.count(), 1000u);
  EXPECT_EQ(copy.sample_size(), 0u);
}

// MOBISIM_CHECK throws SimError (src/util/check.h), so a quantile read after
// Release fails loudly instead of returning the empty-reservoir 0.
TEST(ReservoirSampleTest, QuantilesAfterReleaseFailTheCheck) {
  ReservoirSample res(16);
  res.Add(1.0);
  res.Release();
  EXPECT_THROW(res.Quantiles({0.5}), SimError);
  EXPECT_THROW(res.Quantile(0.5), SimError);
  ReservoirSample empty(16);
  empty.Release();
  EXPECT_THROW(empty.Quantiles({0.5, 0.99}), SimError);
}

// The exact radix selection against a full sort of the same values, bit
// for bit.  The reference sorts by the total order (-0.0 before +0.0),
// which `<` leaves tied; every other pair of values sorts as `<` does.
TEST(ReservoirSampleTest, QuantilesMatchAFullSortBitForBit) {
  const auto total_less = [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  };
  const auto reference = [](const std::vector<double>& v, double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  Rng rng(20261018);
  int checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes 1-3, small, around the sort cutoff, and reservoir-sized.
    const std::size_t sizes[] = {1, 2, 3, 10, 63, 64, 65, 500, 5000, 70000};
    const std::size_t n = sizes[trial % 10];
    // A pool of 1, <= 10 or many distinct values, mixing signs, both zeros,
    // subnormals and huge outliers.
    const int pool_kind = (trial / 10) % 4;
    const std::size_t pool_size =
        pool_kind == 0 ? 1 : pool_kind == 1 ? static_cast<std::size_t>(rng.UniformInt(1, 10)) : n;
    std::vector<double> pool;
    for (std::size_t i = 0; i < pool_size; ++i) {
      const double pick = rng.NextDouble();
      pool.push_back(pick < 0.1    ? 0.0
                     : pick < 0.2  ? -0.0
                     : pick < 0.25 ? (rng.Chance(0.5) ? 1e300 : -1e300)
                     : pick < 0.3  ? 4.9e-324 * static_cast<double>(rng.UniformInt(1, 9))
                     : pick < 0.6  ? -rng.Exponential(1.0 / 3.0)
                                   : rng.Exponential(1.0 / 3.0));
    }
    if (pool_kind == 3) {
      pool.resize(std::min<std::size_t>(pool.size(), 2000));  // heavy duplicates
    }
    std::vector<double> values;
    ReservoirSample res(n);
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(pool[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))]);
      res.Add(values.back());
    }
    const std::vector<double> qs = {0.0, 1.0, 0.5, 0.9, 0.95, 0.99, rng.NextDouble()};
    const std::vector<double> got = res.Quantiles(qs);
    ASSERT_EQ(got.size(), qs.size());
    std::sort(values.begin(), values.end(), total_less);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const double want = reference(values, qs[i]);
      const double single = res.Quantile(qs[i]);
      ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
          << "trial " << trial << " n " << n << " q " << qs[i] << ": " << got[i] << " vs "
          << want;
      ASSERT_EQ(std::memcmp(&single, &want, sizeof(double)), 0) << "trial " << trial;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 400 * 7);
}

TEST(EnergyMeterTest, IntegratesPowerOverTime) {
  EnergyMeter meter({{"idle", 0.7}, {"active", 1.75}});
  meter.Accumulate(0, UsFromSec(10));  // 7 J
  meter.Accumulate(1, UsFromSec(2));   // 3.5 J
  EXPECT_NEAR(meter.mode_joules(0), 7.0, 1e-9);
  EXPECT_NEAR(meter.mode_joules(1), 3.5, 1e-9);
  EXPECT_NEAR(meter.total_joules(), 10.5, 1e-9);
  EXPECT_EQ(meter.mode_time_us(0), UsFromSec(10));
  EXPECT_EQ(meter.mode_name(1), "active");
}

TEST(EnergyMeterTest, DirectJoules) {
  EnergyMeter meter({{"refresh", 0.0}});
  meter.AccumulateJoules(0, 1.25);
  EXPECT_NEAR(meter.total_joules(), 1.25, 1e-12);
}

TEST(TablePrinterTest, AlignsAndCounts) {
  TablePrinter table({"Device", "Energy (J)"});
  table.BeginRow().Cell("cu140").Cell(8854.0, 0);
  table.BeginRow().Cell("intel").Cell(888.0, 0);
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("cu140"), std::string::npos);
  EXPECT_NE(text.find("8854"), std::string::npos);
  EXPECT_NE(text.find("Device"), std::string::npos);
}

// The inversion GeometricDistribution must reproduce, written out here on
// its own: the 53 bits m as u = m / 2^53, k = floor(log(1 - u) / log q).
std::uint32_t GeometricByLog(double mean, std::uint64_t m) {
  const double log_q = std::log(1.0 - 1.0 / mean);
  const double u = static_cast<double>(m) * (1.0 / 9007199254740992.0);
  const double k = std::floor(std::log(1.0 - u) / log_q);
  return 1 + static_cast<std::uint32_t>(std::min(k, 4095.0));
}

// Every preset's mean, one just above 1 (a table cut short by the 53 bits)
// and one large enough that most draws fall past the table.
TEST(GeometricTest, TableMatchesTheLogExpression) {
  constexpr std::uint64_t kEnd = std::uint64_t{1} << 53;
  for (const double mean : {1.2, 1.3, 3.4, 3.8, 4.3, 6.2, 1.0001, 100.0}) {
    SCOPED_TRACE(mean);
    const GeometricDistribution dist(mean);
    const std::span<const std::uint64_t> bounds = dist.boundaries();
    ASSERT_FALSE(bounds.empty());
    ASSERT_LE(bounds.size(), 64u);
    for (std::size_t j = 0; j < bounds.size(); ++j) {
      // boundaries()[j] is the first m whose draw is at least j + 2.
      ASSERT_GE(GeometricByLog(mean, bounds[j]), j + 2);
      ASSERT_LT(GeometricByLog(mean, bounds[j] - 1), j + 2);
      const std::uint64_t lo = bounds[j] > 20000 ? bounds[j] - 20000 : 0;
      const std::uint64_t hi = std::min(kEnd - 1, bounds[j] + 20000);
      for (std::uint64_t m = lo; m <= hi; ++m) {
        ASSERT_EQ(dist.FromBits(m), GeometricByLog(mean, m)) << "m=" << m;
      }
    }
    ASSERT_EQ(dist.FromBits(0), GeometricByLog(mean, 0));
    ASSERT_EQ(dist.FromBits(kEnd - 1), GeometricByLog(mean, kEnd - 1));
    Rng rng(47);
    for (int i = 0; i < 10000000; ++i) {
      const std::uint64_t m = rng.NextU64() >> 11;
      ASSERT_EQ(dist.FromBits(m), GeometricByLog(mean, m)) << "m=" << m;
    }
  }
}

// The draw is exact where the count changes: at every boundary and the m
// just below it, and at both sides of every edge of the top-bits guide.
TEST(GeometricTest, FromBitsMatchesTheLogAtEveryBoundaryAndGuideEdge) {
  for (const double mean : {1.2, 1.3, 3.4, 3.8, 4.3, 6.2}) {
    SCOPED_TRACE(mean);
    const GeometricDistribution dist(mean);
    ASSERT_FALSE(dist.boundaries().empty());
    for (const std::uint64_t b : dist.boundaries()) {
      ASSERT_EQ(dist.FromBits(b), dist.FromBitsByLog(b)) << "m=" << b;
      ASSERT_EQ(dist.FromBits(b - 1), dist.FromBitsByLog(b - 1)) << "m=" << b - 1;
    }
    for (std::uint64_t g = 1; g <= 1024; ++g) {
      const std::uint64_t edge = g << 43;
      if (edge < (std::uint64_t{1} << 53)) {
        ASSERT_EQ(dist.FromBits(edge), dist.FromBitsByLog(edge)) << "m=" << edge;
      }
      ASSERT_EQ(dist.FromBits(edge - 1), dist.FromBitsByLog(edge - 1)) << "m=" << edge - 1;
    }
  }
}

TEST(GeometricTest, SampleDrawsTheTopBitsOfOneNextU64) {
  const GeometricDistribution dist(3.4);
  Rng a(53);
  Rng b(53);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(dist.Sample(a), dist.FromBits(b.NextU64() >> 11));
  }
  // A mean of 1 draws 1 and consumes nothing.
  const GeometricDistribution one(1.0);
  EXPECT_TRUE(one.boundaries().empty());
  EXPECT_EQ(one.Sample(a), 1u);
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

}  // namespace
}  // namespace mobisim
