// Graceful-degradation and input-validation tests for the spectral path:
// non-finite/asymmetric similarity handling (strict vs lenient) and k-means'
// behavior on degenerate embeddings. The eigensolver itself has no fallback
// to test: linalg::symmetric_eigen either converges or throws util::Error.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {
namespace {

linalg::Matrix block_similarity(int blocks, int per_block, std::uint64_t seed,
                                std::vector<int>* truth = nullptr) {
  util::Xoshiro256StarStar rng(seed);
  const int n = blocks * per_block;
  linalg::Matrix w(n, n);
  for (int i = 0; i < n; ++i) {
    if (truth) truth->push_back(i / per_block);
    for (int j = 0; j <= i; ++j) {
      const bool same = (i / per_block) == (j / per_block);
      const double base = i == j ? 1.0 : (same ? 0.9 : 0.05);
      const double v =
          std::clamp(base + rng.uniform_real(-0.02, 0.02), 0.0, 1.0);
      w(i, j) = v;
      w(j, i) = v;
    }
  }
  return w;
}

TEST(SpectralValidation, StrictRejectsNonFiniteSimilarity) {
  auto w = block_similarity(2, 4, 3);
  w(1, 2) = std::numeric_limits<double>::quiet_NaN();
  w(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spectral_cluster(w, 2), util::InvalidArgument);

  auto inf = block_similarity(2, 4, 5);
  inf(0, 3) = std::numeric_limits<double>::infinity();
  inf(3, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spectral_cluster(inf, 2), util::InvalidArgument);
}

TEST(SpectralValidation, StrictRejectsAsymmetricSimilarity) {
  auto w = block_similarity(2, 4, 7);
  w(1, 2) += 0.5;  // break symmetry well beyond numerical noise
  EXPECT_THROW(spectral_cluster(w, 2), util::InvalidArgument);
}

TEST(SpectralValidation, TinyAsymmetryIsToleratedStrict) {
  auto w = block_similarity(2, 4, 9);
  w(1, 2) += 1e-12;  // numerical noise must NOT trip validation
  const auto result = spectral_cluster(w, 2);
  EXPECT_EQ(result.labels.size(), 8u);
}

TEST(SpectralValidation, LenientClampsAndReports) {
  std::vector<int> truth;
  auto w = block_similarity(3, 8, 11, &truth);
  w(1, 2) = std::numeric_limits<double>::quiet_NaN();
  w(2, 1) = std::numeric_limits<double>::quiet_NaN();
  util::Diagnostics diagnostics;
  SpectralOptions options;
  options.lenient = true;
  options.diagnostics = &diagnostics;
  const auto result = spectral_cluster(w, 3, options);
  EXPECT_EQ(result.clamped_entries, 2u);
  EXPECT_EQ(diagnostics.count_of("spectral", "non-finite-clamped"), 2u);
  // Two poisoned entries out of 576 must not destroy the clustering.
  EXPECT_GT(adjusted_rand_index(result.labels, truth), 0.9);
}

TEST(KMeansRobustness, NonFiniteDataRejected) {
  linalg::Matrix data(4, 2);
  data(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(kmeans(data, 2, {}), util::InvalidArgument);
}

TEST(KMeansRobustness, DegenerateEmbeddingStillProducesKClusters) {
  // All points identical: kmeans++ D^2 weights are all zero. The uniform
  // re-seed must still return a usable labeling instead of looping or
  // crashing.
  linalg::Matrix data(8, 2);
  for (std::size_t i = 0; i < 8; ++i) {
    data(i, 0) = 1.0;
    data(i, 1) = 2.0;
  }
  const auto result = kmeans(data, 3, {});
  ASSERT_EQ(result.labels.size(), 8u);
  for (int l : result.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
  EXPECT_EQ(result.inertia, 0.0);
}

}  // namespace
}  // namespace cwgl::cluster
