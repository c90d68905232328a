// Differential tests for the count-weighted clustering stages against their
// plain counterparts run on the EXPANDED data (each row duplicated `weight`
// times). These are the equivalence claims the shape-interned pipeline rests
// on: spectral clustering over distinct rows with a point-to-row map ==
// the run on the expanded matrix (plus a padded eigenvalue 1 per collapsed
// duplicate), mapped k-means == k-means over the expanded points with the
// same seeds, weighted k-means == the expanded partition, weighted
// silhouette == expanded silhouette.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
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

/// Rows of `data` in the order of `item_of`: the expanded point set.
linalg::Matrix expand_by_map(const linalg::Matrix& data,
                             const std::vector<std::uint32_t>& item_of) {
  linalg::Matrix out(item_of.size(), data.cols());
  for (std::size_t p = 0; p < item_of.size(); ++p) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      out(p, c) = data(item_of[p], c);
    }
  }
  return out;
}

TEST(KMeansMapped, MatchesExpandedRunBitForBit) {
  // Six distinct rows and 14 points over them, interleaved. Integer
  // coordinates keep every centroid sum exact, so the mapped run must give
  // the expanded run's labels and centers bit for bit at every seed. The
  // weighted run over the same rows draws its seeds by weight and lands on
  // other points, so at some seed its labels or first center differ.
  linalg::Matrix data(6, 2);
  const double coords[6][2] = {{0, 0}, {1, 0}, {8, 1}, {9, 0}, {0, 9}, {1, 8}};
  for (std::size_t i = 0; i < 6; ++i) {
    data(i, 0) = coords[i][0];
    data(i, 1) = coords[i][1];
  }
  const std::vector<std::uint32_t> item_of{4, 0, 2, 0, 5, 1, 3,
                                           0, 2, 4, 1, 0, 5, 3};
  const linalg::Matrix expanded = expand_by_map(data, item_of);
  std::vector<double> weights(6, 0.0);
  for (std::uint32_t t : item_of) weights[t] += 1.0;

  std::size_t weighted_differs = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    KMeansOptions opt;
    opt.seed = seed;
    opt.restarts = 2;
    const KMeansResult plain = kmeans(expanded, 3, opt);
    const KMeansResult mapped = kmeans(data, 3, opt, item_of);
    const KMeansResult weighted = kmeans(data, 3, opt, weights);
    std::vector<int> mapped_labels, weighted_labels;
    for (std::uint32_t t : item_of) {
      mapped_labels.push_back(mapped.labels[t]);
      weighted_labels.push_back(weighted.labels[t]);
    }
    EXPECT_EQ(mapped_labels, plain.labels);
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t d = 0; d < 2; ++d) {
        EXPECT_EQ(mapped.centers(c, d), plain.centers(c, d));
      }
    }
    // Inertia sums per row rather than per point: equal up to rounding.
    EXPECT_DOUBLE_EQ(mapped.inertia, plain.inertia);

    // Without Lloyd iterations the centers are the k-means++ seeds.
    opt.max_iterations = 0;
    const KMeansResult plain_seeds = kmeans(expanded, 3, opt);
    const KMeansResult mapped_seeds = kmeans(data, 3, opt, item_of);
    const KMeansResult weighted_seeds = kmeans(data, 3, opt, weights);
    EXPECT_EQ(mapped_seeds.centers.row(0)[0], plain_seeds.centers.row(0)[0]);
    EXPECT_EQ(mapped_seeds.centers.row(0)[1], plain_seeds.centers.row(0)[1]);
    weighted_differs +=
        weighted_labels != plain.labels ||
        weighted_seeds.centers(0, 0) != plain_seeds.centers(0, 0) ||
        weighted_seeds.centers(0, 1) != plain_seeds.centers(0, 1);
  }
  EXPECT_GT(weighted_differs, 0u);
}

TEST(KMeansMapped, EmptyMapIsTheUnweightedRun) {
  std::vector<std::uint64_t> weights;
  const linalg::Matrix data = blob_rows(&weights, 11, 12);
  const KMeansResult mapped =
      kmeans(data, 3, {}, std::span<const std::uint32_t>{});
  const KMeansResult plain = kmeans(data, 3);
  EXPECT_EQ(mapped.labels, plain.labels);
  EXPECT_EQ(mapped.inertia, plain.inertia);
}

TEST(KMeansMapped, RejectsBadMaps) {
  std::vector<std::uint64_t> weights;
  const linalg::Matrix data = blob_rows(&weights);  // 9 rows
  const std::vector<std::uint32_t> out_of_range{0, 1, 2, 3, 4, 5, 6, 7, 9};
  EXPECT_THROW(kmeans(data, 3, {}, out_of_range), util::InvalidArgument);
  const std::vector<std::uint32_t> row_without_point{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(kmeans(data, 3, {}, row_without_point), util::InvalidArgument);
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

TEST(SpectralMapped, MatchesExpandedRunOnBlockData) {
  const std::size_t n = 9;
  const linalg::Matrix sim = block_similarity(n);
  std::vector<std::uint64_t> weights;
  util::Xoshiro256StarStar rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(1 + rng.uniform_int(0, 4));
  }
  const linalg::Matrix expanded = expand_square(sim, weights);
  std::vector<std::uint32_t> item_of;
  for (std::size_t i = 0; i < n; ++i) {
    item_of.insert(item_of.end(), weights[i], static_cast<std::uint32_t>(i));
  }

  const SpectralResult plain = spectral_cluster(expanded, 3);
  const SpectralResult mapped = spectral_cluster(sim, 3, {}, item_of);

  // k-means draws over the same points, so the cluster ids agree too.
  std::vector<int> mapped_expanded;
  for (std::uint32_t t : item_of) mapped_expanded.push_back(mapped.labels[t]);
  EXPECT_EQ(mapped_expanded, plain.labels);

  // Eigenvalue equivalence: the expanded spectrum is the mapped spectrum
  // plus an eigenvalue 1 for every collapsed duplicate row.
  const std::size_t total = item_of.size();
  ASSERT_EQ(plain.eigenvalues.size(), total);
  ASSERT_EQ(mapped.eigenvalues.size(), n);
  std::vector<double> padded = mapped.eigenvalues;
  padded.insert(padded.end(), total - n, 1.0);
  std::sort(padded.begin(), padded.end());
  std::vector<double> reference = plain.eigenvalues;
  std::sort(reference.begin(), reference.end());
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_NEAR(padded[i], reference[i], 1e-8) << "eigenvalue " << i;
  }
}

TEST(SpectralMapped, IdentityMapMatchesPlainExactly) {
  const linalg::Matrix sim = block_similarity(9);
  std::vector<std::uint32_t> identity(9);
  for (std::uint32_t i = 0; i < 9; ++i) identity[i] = i;
  const SpectralResult mapped = spectral_cluster(sim, 3, {}, identity);
  const SpectralResult plain = spectral_cluster(sim, 3);
  EXPECT_EQ(mapped.labels, plain.labels);
  EXPECT_EQ(mapped.eigenvalues, plain.eigenvalues);
}

TEST(SpectralMapped, RejectsBadInput) {
  const linalg::Matrix sim = block_similarity(6);
  const std::vector<std::uint32_t> out_of_range{0, 1, 2, 3, 4, 6};
  EXPECT_THROW(spectral_cluster(sim, 2, {}, out_of_range),
               util::InvalidArgument);
  const std::vector<std::uint32_t> row_without_point{0, 1, 2, 3, 4, 4};
  EXPECT_THROW(spectral_cluster(sim, 2, {}, row_without_point),
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
