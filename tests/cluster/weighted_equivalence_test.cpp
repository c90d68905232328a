// Differential tests for the count-weighted clustering stages against their
// plain counterparts run on the EXPANDED data (each row duplicated `weight`
// times). These are the equivalence claims the shape-interned pipeline rests
// on: weighted spectral embedding == expanded embedding (plus a padded
// eigenvalue 1 per collapsed duplicate), weighted k-means == k-means over
// duplicates, weighted silhouette == expanded silhouette.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "linalg/matrix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {
namespace {

/// Expands row i of `data` into `weights[i]` identical rows.
linalg::Matrix expand_rows(const linalg::Matrix& data,
                           const std::vector<std::uint64_t>& weights) {
  std::size_t total = 0;
  for (std::uint64_t w : weights) total += w;
  linalg::Matrix out(total, data.cols());
  std::size_t r = 0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::uint64_t copy = 0; copy < weights[i]; ++copy, ++r) {
      for (std::size_t c = 0; c < data.cols(); ++c) out(r, c) = data(i, c);
    }
  }
  return out;
}

/// Expands a similarity (or distance) matrix the same way, on both axes.
linalg::Matrix expand_square(const linalg::Matrix& m,
                             const std::vector<std::uint64_t>& weights) {
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::uint64_t copy = 0; copy < weights[i]; ++copy) owner.push_back(i);
  }
  linalg::Matrix out(owner.size(), owner.size());
  for (std::size_t a = 0; a < owner.size(); ++a) {
    for (std::size_t b = 0; b < owner.size(); ++b) {
      out(a, b) = m(owner[a], owner[b]);
    }
  }
  return out;
}

/// True when two labelings are the same partition (up to cluster renaming).
bool same_partition(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.size() != b.size()) return false;
  std::vector<int> a_to_b(1 + *std::max_element(a.begin(), a.end()), -1);
  std::vector<int> b_to_a(1 + *std::max_element(b.begin(), b.end()), -1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a_to_b[a[i]] == -1) a_to_b[a[i]] = b[i];
    if (b_to_a[b[i]] == -1) b_to_a[b[i]] = a[i];
    if (a_to_b[a[i]] != b[i] || b_to_a[b[i]] != a[i]) return false;
  }
  return true;
}

/// Three well-separated blob CENTERS (one row each) plus per-row weights —
/// the collapsed view of a workload with recurring identical rows.
linalg::Matrix blob_rows(std::vector<std::uint64_t>* weights,
                         std::uint64_t seed = 3, std::size_t rows = 9) {
  util::Xoshiro256StarStar rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  linalg::Matrix data(rows, 2);
  weights->clear();
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t b = i % 3;
    data(i, 0) = centers[b][0] + rng.normal(0.0, 0.4);
    data(i, 1) = centers[b][1] + rng.normal(0.0, 0.4);
    weights->push_back(1 + rng.uniform_int(0, 6));
  }
  return data;
}

TEST(KMeansWeighted, MatchesExpandedRunOnSeparatedData) {
  std::vector<std::uint64_t> weights;
  const linalg::Matrix data = blob_rows(&weights);
  const linalg::Matrix expanded = expand_rows(data, weights);
  std::vector<double> w(weights.begin(), weights.end());

  const KMeansResult plain = kmeans(expanded, 3);
  const KMeansResult weighted = kmeans(data, 3, {}, w);

  // Expand the weighted labels and compare partitions (cluster ids may be
  // permuted between the two runs — the RNG streams differ).
  std::vector<int> weighted_expanded;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    for (std::uint64_t c = 0; c < weights[i]; ++c) {
      weighted_expanded.push_back(weighted.labels[i]);
    }
  }
  EXPECT_TRUE(same_partition(plain.labels, weighted_expanded));

  // Same partition => identical centroids (weighted mean == expanded mean)
  // and identical inertia, up to the cluster-id permutation.
  std::vector<int> perm(3, -1);
  for (std::size_t i = 0; i < weighted_expanded.size(); ++i) {
    perm[weighted_expanded[i]] = plain.labels[i];
  }
  for (int c = 0; c < 3; ++c) {
    ASSERT_GE(perm[c], 0);
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_NEAR(weighted.centers(c, d),
                  plain.centers(static_cast<std::size_t>(perm[c]), d), 1e-9);
    }
  }
  EXPECT_NEAR(weighted.inertia, plain.inertia, 1e-9 * (1.0 + plain.inertia));
}

TEST(KMeansWeighted, AllWeightsOneMatchesPlainExactly) {
  std::vector<std::uint64_t> weights;
  const linalg::Matrix data = blob_rows(&weights, 11, 12);
  const std::vector<double> ones(data.rows(), 1.0);
  const KMeansResult weighted = kmeans(data, 3, {}, ones);
  const KMeansResult plain = kmeans(data, 3);
  EXPECT_TRUE(same_partition(plain.labels, weighted.labels));
  EXPECT_NEAR(weighted.inertia, plain.inertia, 1e-12 * (1.0 + plain.inertia));
}

TEST(KMeansWeighted, RejectsBadWeights) {
  std::vector<std::uint64_t> weights;
  const linalg::Matrix data = blob_rows(&weights);
  EXPECT_THROW(kmeans(data, 3, {}, std::vector<double>(3, 1.0)),
               util::InvalidArgument);
  std::vector<double> zero(data.rows(), 1.0);
  zero[0] = 0.0;
  EXPECT_THROW(kmeans(data, 3, {}, zero), util::InvalidArgument);
  std::vector<double> nan(data.rows(), 1.0);
  nan[0] = std::nan("");
  EXPECT_THROW(kmeans(data, 3, {}, nan), util::InvalidArgument);
}

TEST(KMeansWeighted, SeedDrawIsUniformWithoutWeightsProportionalWith) {
  // With no Lloyd iteration the result is the k-means++ seeding itself, so
  // the first center shows which draw picked it: a uniform row without
  // weights (the unweighted run's draw, which fixes its labels), a row drawn
  // in proportion to weight with them.
  linalg::Matrix data(7, 1);
  for (std::size_t i = 0; i < 7; ++i) data(i, 0) = static_cast<double>(i);
  const std::vector<double> weights{1.0, 4.0, 1.0, 2.0, 9.0, 1.0, 3.0};
  KMeansOptions opt;
  opt.max_iterations = 0;
  opt.restarts = 1;
  std::size_t draws_that_differ = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    opt.seed = seed;
    const auto stream = [&] {
      return util::Xoshiro256StarStar(util::hash_combine(seed, 0));
    };
    const auto uniform_row = stream().uniform_u64(0, 6);
    const auto weighted_row = stream().discrete(weights);
    draws_that_differ += uniform_row != weighted_row;
    EXPECT_EQ(kmeans(data, 1, opt).centers(0, 0),
              static_cast<double>(uniform_row));
    EXPECT_EQ(kmeans(data, 1, opt, weights).centers(0, 0),
              static_cast<double>(weighted_row));
  }
  EXPECT_GT(draws_that_differ, 0u);
}

/// Block similarity over `rows` items in 3 groups: 1.0 within, ~0 across,
/// mildly perturbed to keep eigenvalues simple.
linalg::Matrix block_similarity(std::size_t rows) {
  linalg::Matrix s(rows, rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < rows; ++j) {
      s(i, j) = (i % 3 == j % 3) ? 1.0 : 0.05;
    }
  }
  return s;
}

TEST(SpectralWeighted, MatchesExpandedRunOnBlockData) {
  const std::size_t n = 9;
  const linalg::Matrix sim = block_similarity(n);
  std::vector<std::uint64_t> weights;
  util::Xoshiro256StarStar rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(1 + rng.uniform_int(0, 4));
  }
  const linalg::Matrix expanded = expand_square(sim, weights);
  std::vector<double> w(weights.begin(), weights.end());

  const SpectralResult plain = spectral_cluster(expanded, 3);
  const SpectralResult weighted = spectral_cluster(sim, 3, {}, w);

  std::vector<int> weighted_expanded;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint64_t c = 0; c < weights[i]; ++c) {
      weighted_expanded.push_back(weighted.labels[i]);
    }
  }
  EXPECT_TRUE(same_partition(plain.labels, weighted_expanded));

  // Eigenvalue equivalence: the expanded spectrum is the weighted spectrum
  // plus an eigenvalue 1 for every collapsed duplicate row.
  std::size_t total = 0;
  for (std::uint64_t wi : weights) total += wi;
  ASSERT_EQ(plain.eigenvalues.size(), total);
  ASSERT_EQ(weighted.eigenvalues.size(), n);
  std::vector<double> padded = weighted.eigenvalues;
  padded.insert(padded.end(), total - n, 1.0);
  std::sort(padded.begin(), padded.end());
  std::vector<double> reference = plain.eigenvalues;
  std::sort(reference.begin(), reference.end());
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_NEAR(padded[i], reference[i], 1e-8) << "eigenvalue " << i;
  }
}

TEST(SpectralWeighted, AllWeightsOneMatchesPlain) {
  const linalg::Matrix sim = block_similarity(9);
  const std::vector<double> ones(9, 1.0);
  const SpectralResult weighted = spectral_cluster(sim, 3, {}, ones);
  const SpectralResult plain = spectral_cluster(sim, 3);
  EXPECT_TRUE(same_partition(plain.labels, weighted.labels));
  ASSERT_EQ(weighted.eigenvalues.size(), plain.eigenvalues.size());
  for (std::size_t i = 0; i < plain.eigenvalues.size(); ++i) {
    EXPECT_NEAR(weighted.eigenvalues[i], plain.eigenvalues[i], 1e-10);
  }
}

TEST(SpectralWeighted, RejectsBadInput) {
  const linalg::Matrix sim = block_similarity(6);
  EXPECT_THROW(spectral_cluster(sim, 2, {}, std::vector<double>(4, 1.0)),
               util::InvalidArgument);
  std::vector<double> negative(6, 1.0);
  negative[2] = -1.0;
  EXPECT_THROW(spectral_cluster(sim, 2, {}, negative),
               util::InvalidArgument);
}

TEST(SilhouetteWeighted, MatchesExpandedRun) {
  // Distances between 6 items in 2 clear groups.
  const std::size_t n = 6;
  linalg::Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) { dist(i, j) = 0.0; continue; }
      dist(i, j) = (i % 2 == j % 2) ? 0.3 + 0.01 * (i + j) : 2.0;
    }
  }
  const std::vector<int> labels{0, 1, 0, 1, 0, 1};
  std::vector<std::uint64_t> weights{3, 1, 2, 4, 1, 2};
  const linalg::Matrix big = expand_square(dist, weights);
  std::vector<int> big_labels;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint64_t c = 0; c < weights[i]; ++c) big_labels.push_back(labels[i]);
  }
  std::vector<double> w(weights.begin(), weights.end());

  const double expanded = silhouette_score(big, big_labels);
  const double weighted = silhouette_score(dist, labels, w);
  EXPECT_NEAR(weighted, expanded, 1e-12);
}

TEST(SilhouetteWeighted, AllWeightsOneMatchesPlain) {
  linalg::Matrix dist(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      dist(i, j) = i == j ? 0.0 : ((i < 2) == (j < 2) ? 0.5 : 3.0);
    }
  }
  const std::vector<int> labels{0, 0, 1, 1};
  const std::vector<double> ones(4, 1.0);
  EXPECT_NEAR(silhouette_score(dist, labels, ones),
              silhouette_score(dist, labels), 1e-15);
}

}  // namespace
}  // namespace cwgl::cluster
