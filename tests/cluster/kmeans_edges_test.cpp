#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "util/error.hpp"

namespace cwgl::cluster {
namespace {

TEST(KMeansWeightedEdges, SingleClusterIsWeightedMean) {
  linalg::Matrix data = linalg::Matrix::from_rows(
      {{0.0, 0.0}, {4.0, 0.0}, {0.0, 8.0}});
  const std::vector<double> weights = {1.0, 2.0, 1.0};
  const auto result = kmeans(data, 1, {}, weights);
  for (int l : result.labels) EXPECT_EQ(l, 0);
  // Weighted mean: x = (0 + 2*4 + 0)/4 = 2, y = (0 + 0 + 8)/4 = 2.
  EXPECT_NEAR(result.centers(0, 0), 2.0, 1e-9);
  EXPECT_NEAR(result.centers(0, 1), 2.0, 1e-9);
}

TEST(KMeansWeightedEdges, AllZeroWeightsThrow) {
  linalg::Matrix data = linalg::Matrix::from_rows({{0.0}, {1.0}, {2.0}});
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_THROW(kmeans(data, 2, {}, zeros), util::InvalidArgument);
}

TEST(KMeansWeightedEdges, NegativeAndNonFiniteWeightsThrow) {
  linalg::Matrix data = linalg::Matrix::from_rows({{0.0}, {1.0}, {2.0}});
  const std::vector<double> negative = {1.0, -1.0, 1.0};
  EXPECT_THROW(kmeans(data, 2, {}, negative), util::InvalidArgument);
  const std::vector<double> inf = {
      1.0, std::numeric_limits<double>::infinity(), 1.0};
  EXPECT_THROW(kmeans(data, 2, {}, inf), util::InvalidArgument);
}

TEST(KMeansWeightedEdges, KAboveDistinctPointsStaysBounded) {
  // Six rows but only two distinct locations: with k = 4 at least two
  // clusters can never separate anything, and the empty-cluster re-seeding
  // has nowhere better to put them. The run must still terminate with
  // in-range labels, zero-distance inertia, and the duplicates co-assigned.
  linalg::Matrix data(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    data(i, 0) = i < 3 ? 0.0 : 5.0;
    data(i, 1) = 0.0;
  }
  const std::vector<double> weights = {1.0, 1.0, 1.0, 2.0, 2.0, 2.0};
  const auto result = kmeans(data, 4, {}, weights);
  for (int l : result.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
  EXPECT_NE(result.labels[0], result.labels[3]);
}

TEST(KMeansWeightedEdges, DeterministicAcrossRuns) {
  linalg::Matrix data(40, 2);
  for (std::size_t i = 0; i < 40; ++i) {
    data(i, 0) = static_cast<double>(i % 7);
    data(i, 1) = static_cast<double>((i * 13) % 5);
  }
  std::vector<double> weights(40);
  for (std::size_t i = 0; i < 40; ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 3);
  }
  KMeansOptions opt;
  opt.seed = 977;
  const auto a = kmeans(data, 4, opt, weights);
  const auto b = kmeans(data, 4, opt, weights);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);

  KMeansOptions other = opt;
  other.seed = 978;
  const auto c = kmeans(data, 4, other, weights);
  // A different seed is allowed to find the same partition, but the
  // restart-stream must at minimum be reproducible per seed.
  const auto d = kmeans(data, 4, other, weights);
  EXPECT_EQ(c.labels, d.labels);
}

linalg::Matrix pair_distances() {
  // Four points on a line: {0, 1} close together, {10, 11} close together.
  const double pos[4] = {0.0, 1.0, 10.0, 11.0};
  linalg::Matrix d(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      d(i, j) = pos[i] > pos[j] ? pos[i] - pos[j] : pos[j] - pos[i];
    }
  }
  return d;
}

TEST(SilhouetteWeightedEdges, SingleClusterScoresZero) {
  const auto d = pair_distances();
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const std::vector<int> labels = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(silhouette_score(d, labels, weights), 0.0);
}

TEST(SilhouetteWeightedEdges, AllZeroWeightsThrow) {
  const auto d = pair_distances();
  const std::vector<double> zeros = {0.0, 0.0, 0.0, 0.0};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_THROW(silhouette_score(d, labels, zeros),
               util::InvalidArgument);
}

TEST(SilhouetteWeightedEdges, WeightLengthMismatchThrows) {
  const auto d = pair_distances();
  const std::vector<double> weights = {1.0, 2.0, 3.0};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_THROW(silhouette_score(d, labels, weights), util::InvalidArgument);
}

TEST(SilhouetteWeightedEdges, WellSeparatedPairsScoreHigh) {
  const auto d = pair_distances();
  const std::vector<double> weights = {2.0, 2.0, 2.0, 2.0};
  const std::vector<int> labels = {0, 0, 1, 1};
  const double s = silhouette_score(d, labels, weights);
  EXPECT_GT(s, 0.85);
  EXPECT_LE(s, 1.0);
}

TEST(SilhouetteWeightedEdges, SingletonWeightConventionScoresZero) {
  // Weighted population 1 in each cluster: the singleton convention gives
  // every point silhouette 0, hence a 0 mean.
  const auto d = pair_distances();
  const std::vector<double> weights = {1.0, 1.0, 1.0, 1.0};
  const std::vector<int> labels = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(silhouette_score(d, labels, weights), 0.0);
}

}  // namespace
}  // namespace cwgl::cluster
