#include "cluster/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {
namespace {

/// Block-structured similarity: `blocks` groups with high in-block and low
/// cross-block similarity, plus mild noise.
linalg::Matrix block_similarity(int blocks, int per_block, std::uint64_t seed,
                                std::vector<int>* truth = nullptr,
                                double in = 0.9, double out = 0.05) {
  util::Xoshiro256StarStar rng(seed);
  const int n = blocks * per_block;
  linalg::Matrix w(n, n);
  for (int i = 0; i < n; ++i) {
    if (truth) truth->push_back(i / per_block);
    for (int j = 0; j < n; ++j) {
      const bool same = (i / per_block) == (j / per_block);
      const double base = i == j ? 1.0 : (same ? in : out);
      w(i, j) = std::clamp(base + rng.uniform_real(-0.02, 0.02), 0.0, 1.0);
    }
  }
  // Symmetrize the noise.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double v = 0.5 * (w(i, j) + w(j, i));
      w(i, j) = v;
      w(j, i) = v;
    }
  }
  return w;
}

TEST(Spectral, RecoversPlantedBlocks) {
  std::vector<int> truth;
  const auto w = block_similarity(3, 12, 5, &truth);
  const auto result = spectral_cluster(w, 3);
  EXPECT_GT(adjusted_rand_index(result.labels, truth), 0.99);
}

TEST(Spectral, FiveGroupsLikeThePaper) {
  std::vector<int> truth;
  const auto w = block_similarity(5, 10, 7, &truth);
  const auto result = spectral_cluster(w, 5);
  EXPECT_GT(adjusted_rand_index(result.labels, truth), 0.95);
}

TEST(Spectral, DeterministicForSeed) {
  const auto w = block_similarity(3, 8, 9);
  SpectralOptions opt;
  opt.kmeans.seed = 17;
  const auto a = spectral_cluster(w, 3, opt);
  const auto b = spectral_cluster(w, 3, opt);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Spectral, EigenvaluesAscendingAndNearZeroFirst) {
  const auto w = block_similarity(3, 10, 11);
  const auto result = spectral_cluster(w, 3);
  ASSERT_FALSE(result.eigenvalues.empty());
  // L_sym of a (nearly) connected graph: smallest eigenvalue ~ 0.
  EXPECT_NEAR(result.eigenvalues.front(), 0.0, 0.05);
  for (std::size_t i = 1; i < result.eigenvalues.size(); ++i) {
    EXPECT_LE(result.eigenvalues[i - 1], result.eigenvalues[i] + 1e-12);
  }
}

TEST(Spectral, EigengapDetectsBlockCount) {
  // With k disconnected-ish blocks, L_sym has ~k near-zero eigenvalues and
  // a gap after them.
  const auto w = block_similarity(4, 10, 13, nullptr, 0.9, 0.01);
  const auto result = spectral_cluster(w, 4);
  EXPECT_EQ(eigengap_k(result.eigenvalues, 10), 4);
}

TEST(Spectral, EmbeddingRowsUnitNorm) {
  const auto w = block_similarity(3, 6, 15);
  const auto result = spectral_cluster(w, 3);
  for (std::size_t i = 0; i < result.embedding.rows(); ++i) {
    double norm = 0.0;
    for (std::size_t c = 0; c < result.embedding.cols(); ++c) {
      norm += result.embedding(i, c) * result.embedding(i, c);
    }
    EXPECT_NEAR(norm, 1.0, 1e-9);
  }
}

TEST(Spectral, LabelsWithinRange) {
  const auto w = block_similarity(2, 5, 19);
  const auto result = spectral_cluster(w, 2);
  for (int l : result.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 2);
  }
}

TEST(Spectral, NonSquareThrows) {
  EXPECT_THROW(spectral_cluster(linalg::Matrix(3, 4), 2), util::InvalidArgument);
}

TEST(Spectral, BadKThrows) {
  const auto w = block_similarity(2, 3, 21);
  EXPECT_THROW(spectral_cluster(w, 0), util::InvalidArgument);
  EXPECT_THROW(spectral_cluster(w, 7), util::InvalidArgument);
}

TEST(Spectral, NegativeSimilaritiesClamped) {
  linalg::Matrix w = linalg::Matrix::from_rows(
      {{1.0, -0.5, 0.8}, {-0.5, 1.0, 0.7}, {0.8, 0.7, 1.0}});
  const auto result = spectral_cluster(w, 2);  // must not throw
  EXPECT_EQ(result.labels.size(), 3u);
}

TEST(Spectral, EigengapSeesTheFullSpectrumAbove512Items) {
  // Seven planted blocks but k = 5: the eigengap must still find 7, which
  // needs the spectrum past the k computed eigenvectors at this size too.
  const auto w = block_similarity(7, 86, 23);  // n = 602
  const auto result = spectral_cluster(w, 5);
  EXPECT_EQ(result.eigenvalues.size(), 602u);
  EXPECT_EQ(eigengap_k(result.eigenvalues, 10), 7);
}

TEST(EigengapK, TrivialSpectra) {
  const std::vector<double> one{0.0};
  EXPECT_EQ(eigengap_k(one, 5), 1);
  const std::vector<double> clear_gap{0.0, 0.01, 0.02, 0.9, 0.95};
  EXPECT_EQ(eigengap_k(clear_gap, 4), 3);
}

}  // namespace
}  // namespace cwgl::cluster
