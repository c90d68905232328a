#include "cluster/minibatch_kmeans.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cluster/metrics.hpp"
#include "cluster/sparse_blobs.hpp"
#include "util/error.hpp"

namespace cwgl::cluster {
namespace {

using testing::make_sparse_blobs;

TEST(MiniBatchKMeans, RecoversPlantedGroups) {
  const auto blobs = make_sparse_blobs(4, 50, 17);
  const auto result =
      minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 4);
  EXPECT_GT(adjusted_rand_index(result.labels, blobs.truth), 0.99);
  std::set<int> distinct(result.labels.begin(), result.labels.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(MiniBatchKMeans, DeterministicForSeed) {
  const auto blobs = make_sparse_blobs(3, 40, 23);
  MiniBatchOptions opt;
  opt.seed = 7;
  const auto a = minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 3, opt);
  const auto b = minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 3, opt);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
  EXPECT_EQ(a.batches, b.batches);
}

TEST(MiniBatchKMeans, NoEmptyClustersEvenWithoutRefinement) {
  const auto blobs = make_sparse_blobs(2, 30, 31);
  MiniBatchOptions opt;
  opt.refine_iterations = 0;
  opt.restarts = 1;
  const auto result =
      minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 5, opt);
  std::set<int> distinct(result.labels.begin(), result.labels.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(MiniBatchKMeans, LabelsInRangeAndSized) {
  const auto blobs = make_sparse_blobs(3, 25, 37);
  const auto result =
      minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 3);
  ASSERT_EQ(result.labels.size(), blobs.points.size());
  for (int l : result.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
  EXPECT_EQ(result.centers.rows(), 3u);
  EXPECT_EQ(result.centers.cols(), blobs.dims);
  EXPECT_GE(result.inertia, 0.0);
}

TEST(MiniBatchKMeans, KEqualsOneAssignsEverything) {
  const auto blobs = make_sparse_blobs(2, 10, 41);
  const auto result =
      minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 1);
  for (int l : result.labels) EXPECT_EQ(l, 0);
}

TEST(MiniBatchKMeans, InvalidArgumentsThrow) {
  const auto blobs = make_sparse_blobs(2, 5, 43);
  EXPECT_THROW(minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 0),
               util::InvalidArgument);
  EXPECT_THROW(
      minibatch_kmeans(blobs.points, blobs.weights, blobs.dims,
                       static_cast<int>(blobs.points.size()) + 1),
      util::InvalidArgument);
  std::vector<double> bad = blobs.weights;
  bad[0] = 0.0;
  EXPECT_THROW(minibatch_kmeans(blobs.points, bad, blobs.dims, 2),
               util::InvalidArgument);
  std::vector<double> short_weights(blobs.points.size() - 1, 1.0);
  EXPECT_THROW(minibatch_kmeans(blobs.points, short_weights, blobs.dims, 2),
               util::InvalidArgument);
  // Feature ids at or above `dims` are out of range.
  EXPECT_THROW(minibatch_kmeans(blobs.points, blobs.weights, 4, 2),
               util::InvalidArgument);
}

TEST(MiniBatchKMeans, StopsOnceABatchBarelyMoves) {
  // Unit rows never reach the default tol within 50 batches; a coarse tol
  // ends the restart once the learning rates have decayed.
  const auto blobs = make_sparse_blobs(3, 30, 41);
  MiniBatchOptions opt;
  opt.restarts = 1;
  opt.max_batches = 50;
  EXPECT_EQ(minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 3, opt)
                .batches,
            50);
  opt.tol = 1e-3;
  const auto stopped =
      minibatch_kmeans(blobs.points, blobs.weights, blobs.dims, 3, opt);
  EXPECT_GT(stopped.batches, 1);
  EXPECT_LT(stopped.batches, 50);
  EXPECT_GT(adjusted_rand_index(stopped.labels, blobs.truth), 0.99);
}

TEST(MiniBatchKMeans, WeightsShiftTheCenters) {
  // Two distinct points; k = 1. The single center must sit at the weighted
  // mean, far closer to the heavy point.
  std::vector<kernel::SparseVector> points(2);
  points[0].items = {{0, 1.0}};
  points[1].items = {{1, 1.0}};
  const std::vector<double> weights = {99.0, 1.0};
  const auto result = minibatch_kmeans(points, weights, 2, 1);
  EXPECT_GT(result.centers(0, 0), 0.9);
  EXPECT_LT(result.centers(0, 1), 0.1);
}

}  // namespace
}  // namespace cwgl::cluster
