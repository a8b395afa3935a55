#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/pool.h"
#include "util/rng.h"
#include "util/stats.h"

namespace livenet {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversBoundsInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Rng r(13);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, LognormalMeanOneConstructionIsUnbiased) {
  // lognormal(-sigma^2/2, sigma) has mean 1: the frame-size jitter model
  // relies on this to conserve the configured bitrate.
  Rng r(17);
  const double sigma = 0.4;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += r.lognormal(-0.5 * sigma * sigma, sigma);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.03);
}

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  OnlineStats a, b, all;
  Rng r(23);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.normal(10.0, 3.0);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-12);
}

TEST(Samples, CdfAt) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(Samples, BoxplotPercentiles) {
  Samples s;
  for (int i = 0; i <= 100; ++i) s.add(i);
  const BoxStats b = boxplot(s);
  EXPECT_NEAR(b.p20, 20.0, 1e-9);
  EXPECT_NEAR(b.p50, 50.0, 1e-9);
  EXPECT_NEAR(b.p80, 80.0, 1e-9);
}

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.bucket(0), 10u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
}

TEST(Histogram, InvalidConstructionThrowsBeforeDividing) {
  // buckets == 0 used to divide by zero in the member initializers
  // before the guard ran; all three invalid shapes must throw cleanly.
  EXPECT_THROW(Histogram(0.0, 100.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(100.0, 100.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(100.0, 0.0, 10), std::invalid_argument);
}

TEST(Histogram, OverUnderflowCounted) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(11.0);
  h.add(5.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(RatioCounter, Percent) {
  RatioCounter rc;
  for (int i = 0; i < 95; ++i) rc.add(true);
  for (int i = 0; i < 5; ++i) rc.add(false);
  EXPECT_DOUBLE_EQ(rc.percent(), 95.0);
}

TEST(WelchT, LargeSeparationGivesLargeT) {
  OnlineStats a, b;
  Rng r(31);
  for (int i = 0; i < 2000; ++i) {
    a.add(r.normal(100.0, 10.0));
    b.add(r.normal(105.0, 10.0));
  }
  // 5-sigma-ish separation over 2000 samples: |t| far above 3.3
  EXPECT_LT(welch_t_statistic(a, b), -3.3);
}

TEST(PoolBucket, RoundsUpToSixteenBytes) {
  for (std::size_t n = 1; n <= 1024; ++n) {
    const std::size_t b = util::pool_bucket(n);
    EXPECT_EQ(b % 16, 0u) << n;
    EXPECT_GE(b, n) << n;
    EXPECT_LT(b - n, 16u) << n;
  }
  static_assert(util::pool_bucket(1) == 16);
  static_assert(util::pool_bucket(16) == 16);
  static_assert(util::pool_bucket(80) == 80);
  static_assert(util::pool_bucket(88) == 96);
  static_assert(util::pool_bucket(168) == 176);
}

}  // namespace
}  // namespace livenet
