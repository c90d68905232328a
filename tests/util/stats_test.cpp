#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace cwgl::util {
namespace {

TEST(RunningSummary, EmptyIsAllZero) {
  RunningSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningSummary, SingleValue) {
  RunningSummary s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningSummary, KnownMoments) {
  RunningSummary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningSummary, MergeEqualsSequential) {
  RunningSummary whole, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    whole.add(x);
    (i < 25 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningSummary, MergeWithEmptyIsIdentity) {
  RunningSummary a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Quantiles, EmptyReturnsZero) {
  Quantiles q({});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.median(), 0.0);
}

TEST(Quantiles, MedianOfOddSample) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  Quantiles q(v);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
  EXPECT_DOUBLE_EQ(q.min(), 1.0);
  EXPECT_DOUBLE_EQ(q.max(), 5.0);
}

TEST(Quantiles, InterpolatedMedianOfEvenSample) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  Quantiles q(v);
  EXPECT_DOUBLE_EQ(q.median(), 2.5);
}

TEST(Quantiles, QuantileClampedAtEnds) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  Quantiles q(v);
  EXPECT_DOUBLE_EQ(q.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.5), 3.0);
}

TEST(Quantiles, MonotoneInQ) {
  const std::vector<double> v{9.0, 2.0, 7.0, 4.0, 6.0, 1.0};
  Quantiles q(v);
  double prev = q.quantile(0.0);
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const double cur = q.quantile(p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(IntHistogram, CountsAndFractions) {
  IntHistogram h;
  h.add(3);
  h.add(3);
  h.add(7, 2);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(7), 2u);
  EXPECT_EQ(h.count(99), 0u);
  EXPECT_DOUBLE_EQ(h.fraction(3), 0.5);
  EXPECT_EQ(h.distinct(), 2u);
}

TEST(IntHistogram, ItemsAscending) {
  IntHistogram h;
  h.add(9);
  h.add(-2);
  h.add(5);
  const auto items = h.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, -2);
  EXPECT_EQ(items[1].first, 5);
  EXPECT_EQ(items[2].first, 9);
}

TEST(IntHistogram, EmptyFractionIsZero) {
  IntHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.0);
}

TEST(Describe, FiveNumberSummary) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const Distribution d = describe(v);
  EXPECT_EQ(d.count, 5u);
  EXPECT_DOUBLE_EQ(d.mean, 3.0);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.median, 3.0);
  EXPECT_DOUBLE_EQ(d.max, 5.0);
  EXPECT_DOUBLE_EQ(d.p25, 2.0);
  EXPECT_DOUBLE_EQ(d.p75, 4.0);
}

TEST(Describe, EmptyInput) {
  const Distribution d = describe({});
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.mean, 0.0);
}

/// Expands (values, weights) into a flat multiset for the reference path.
std::vector<double> expand_weighted(const std::vector<double>& values,
                                    const std::vector<std::uint64_t>& weights) {
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::uint64_t c = 0; c < weights[i]; ++c) out.push_back(values[i]);
  }
  return out;
}

TEST(DescribeWeighted, MatchesExpandedDescribeExactly) {
  const std::vector<double> values{4.0, 1.0, 7.5, 2.0, 3.0};
  const std::vector<std::uint64_t> weights{3, 1, 2, 5, 4};
  const Distribution expanded = describe(expand_weighted(values, weights));
  const Distribution weighted = describe(values, weights);
  EXPECT_EQ(weighted.count, expanded.count);
  // Order statistics must be bit-identical: the weighted quantile mirrors
  // Quantiles::quantile on the expanded multiset.
  EXPECT_EQ(weighted.min, expanded.min);
  EXPECT_EQ(weighted.p25, expanded.p25);
  EXPECT_EQ(weighted.median, expanded.median);
  EXPECT_EQ(weighted.p75, expanded.p75);
  EXPECT_EQ(weighted.max, expanded.max);
  // The mean differs only in summation order.
  EXPECT_NEAR(weighted.mean, expanded.mean, 1e-12);
}

TEST(DescribeWeighted, AllWeightsOneMatchesDescribe) {
  const std::vector<double> values{9.0, 2.0, 5.0, 5.0};
  const std::vector<std::uint64_t> ones(values.size(), 1);
  const Distribution plain = describe(values);
  const Distribution weighted = describe(values, ones);
  EXPECT_EQ(weighted.count, plain.count);
  EXPECT_EQ(weighted.median, plain.median);
  EXPECT_EQ(weighted.p25, plain.p25);
  EXPECT_EQ(weighted.p75, plain.p75);
  EXPECT_NEAR(weighted.mean, plain.mean, 1e-15);
}

TEST(DescribeWeighted, IgnoresZeroWeights) {
  const std::vector<double> values{1.0, 100.0, 3.0};
  const std::vector<std::uint64_t> weights{2, 0, 2};
  const Distribution d = describe(values, weights);
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.max, 3.0);  // the zero-weight value never appears
  EXPECT_DOUBLE_EQ(d.mean, 2.0);
}

TEST(DescribeWeighted, EmptyAndAllZeroWeights) {
  EXPECT_EQ(describe({}, {}).count, 0u);
  const std::vector<double> values{1.0, 2.0};
  const std::vector<std::uint64_t> zeros{0, 0};
  const Distribution d = describe(values, zeros);
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.mean, 0.0);
}

TEST(DescribeWeighted, SingleHeavyValue) {
  const std::vector<double> values{42.0};
  const std::vector<std::uint64_t> weights{1000};
  const Distribution d = describe(values, weights);
  EXPECT_EQ(d.count, 1000u);
  EXPECT_DOUBLE_EQ(d.mean, 42.0);
  EXPECT_DOUBLE_EQ(d.median, 42.0);
  EXPECT_DOUBLE_EQ(d.min, 42.0);
  EXPECT_DOUBLE_EQ(d.max, 42.0);
}

TEST(DescribeWeighted, CountLengthMismatchThrows) {
  const std::vector<double> values{1.0, 2.0, 3.0};
  const std::vector<std::uint64_t> counts{1, 2};
  EXPECT_THROW(describe(values, counts), InvalidArgument);
}

TEST(Pearson, PerfectPositiveCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegativeCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(JensenShannon, IdenticalDistributionsScoreZero) {
  IntHistogram p, q;
  for (int i = 0; i < 10; ++i) {
    p.add(i % 3);
    q.add(i % 3);
  }
  EXPECT_NEAR(jensen_shannon(p, q), 0.0, 1e-12);
}

TEST(JensenShannon, ScaleInvariant) {
  IntHistogram p, q;
  p.add(1, 2);
  p.add(2, 4);
  q.add(1, 200);
  q.add(2, 400);
  EXPECT_NEAR(jensen_shannon(p, q), 0.0, 1e-12);
}

TEST(JensenShannon, DisjointSupportsScoreLn2) {
  IntHistogram p, q;
  p.add(1);
  q.add(2);
  EXPECT_NEAR(jensen_shannon(p, q), std::log(2.0), 1e-12);
}

TEST(JensenShannon, SymmetricAndBounded) {
  IntHistogram p, q;
  p.add(1, 3);
  p.add(2, 1);
  q.add(1, 1);
  q.add(3, 2);
  const double pq = jensen_shannon(p, q);
  EXPECT_NEAR(pq, jensen_shannon(q, p), 1e-12);
  EXPECT_GT(pq, 0.0);
  EXPECT_LT(pq, std::log(2.0) + 1e-12);
}

TEST(JensenShannon, EmptyCases) {
  IntHistogram empty, p;
  p.add(5);
  EXPECT_EQ(jensen_shannon(empty, empty), 0.0);
  EXPECT_NEAR(jensen_shannon(empty, p), std::log(2.0), 1e-12);
}

TEST(JensenShannon, MoreDifferentScoresHigher) {
  IntHistogram base, near, far;
  for (int i = 0; i < 100; ++i) base.add(i % 5);
  for (int i = 0; i < 100; ++i) near.add(i % 5 == 0 ? 1 : i % 5);
  for (int i = 0; i < 100; ++i) far.add(10 + i % 2);
  EXPECT_LT(jensen_shannon(base, near), jensen_shannon(base, far));
}

TEST(Pearson, DegenerateInputsReturnZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_EQ(pearson(x, y), 0.0);                      // zero variance
  EXPECT_EQ(pearson(x, std::vector<double>{1.0}), 0.0);  // size mismatch
}

}  // namespace
}  // namespace cwgl::util
