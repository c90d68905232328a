// Mini-batch k-means against its oracle (support/minibatch_oracle.hpp): the
// center norms are taken once per batch instead of after every step, and
// restarts may run on a pool. On unit-norm rows at the default `tol`, the
// inputs the full-trace pipeline feeds it, neither may move a bit: labels,
// every center entry, inertia, batches and refine iterations must equal the
// oracle's on random sparse corpora, both inline and on a 4-worker pool.
// There the stop test cannot fire (the oracle runs every batch), so the
// per-step and per-batch norms only differ in cost. scripts/check.sh
// re-runs this suite under ASan/UBSan and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "cluster/minibatch_kmeans.hpp"
#include "support/minibatch_oracle.hpp"
#include "support/proptest.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::cluster {
namespace {

struct Corpus {
  std::vector<kernel::SparseVector> points;
  std::vector<double> weights;
  std::size_t dims = 0;
  int k = 1;
  MiniBatchOptions options;
};

/// A random corpus of nonempty unit-norm rows with the default `tol`.
Corpus random_corpus(util::Xoshiro256StarStar& rng) {
  Corpus c;
  const std::size_t n = rng.uniform_u64(1, 160);
  c.dims = rng.uniform_u64(1, 120);
  const double density = rng.uniform_real(0.02, 0.3);
  for (std::size_t i = 0; i < n; ++i) {
    kernel::SparseVector v;
    for (std::size_t id = 0; id < c.dims; ++id) {
      if (rng.bernoulli(density)) {
        v.items.emplace_back(static_cast<int>(id), rng.uniform_real(-1.0, 1.0));
      }
    }
    if (v.items.empty() || v.norm() == 0.0) {
      v.items = {{static_cast<int>(rng.uniform_u64(0, c.dims - 1)), 1.0}};
    }
    const double norm = v.norm();
    for (auto& [id, value] : v.items) value /= norm;
    c.points.push_back(std::move(v));
    c.weights.push_back(rng.bernoulli(0.5)
                            ? static_cast<double>(rng.uniform_u64(1, 50))
                            : rng.uniform_real(0.01, 5.0));
  }
  c.k = static_cast<int>(rng.uniform_u64(1, std::min<std::size_t>(n, 9)));
  c.options.batch_size = rng.uniform_u64(1, 300);
  c.options.max_batches = static_cast<int>(rng.uniform_u64(1, 80));
  c.options.refine_iterations = static_cast<int>(rng.uniform_u64(0, 6));
  c.options.restarts = static_cast<int>(rng.uniform_u64(1, 4));
  c.options.seed = rng();
  return c;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_bitwise_equal(const MiniBatchResult& expected,
                          const MiniBatchResult& actual) {
  EXPECT_EQ(actual.labels, expected.labels);
  EXPECT_TRUE(same_bits(actual.inertia, expected.inertia))
      << expected.inertia << " vs " << actual.inertia;
  EXPECT_EQ(actual.batches, expected.batches);
  EXPECT_EQ(actual.refine_iterations, expected.refine_iterations);
  ASSERT_EQ(actual.centers.rows(), expected.centers.rows());
  ASSERT_EQ(actual.centers.cols(), expected.centers.cols());
  const auto want = expected.centers.data();
  const auto got = actual.centers.data();
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size_bytes()), 0)
      << "center entries differ";
}

TEST(MiniBatchKMeansDifferential, MatchesTheOracleBitForBit) {
  util::ThreadPool pool(4);
  proptest::run_cases(0x6d62646966ULL, 60, [&](util::Xoshiro256StarStar& rng) {
    Corpus c = random_corpus(rng);
    const MiniBatchResult expected = oracle::minibatch_kmeans(
        c.points, c.weights, c.dims, c.k, c.options);
    EXPECT_EQ(expected.batches, c.options.max_batches)
        << "the oracle stopped early, outside the inputs this test covers";
    expect_bitwise_equal(
        expected, minibatch_kmeans(c.points, c.weights, c.dims, c.k, c.options));
    c.options.pool = &pool;
    expect_bitwise_equal(
        expected, minibatch_kmeans(c.points, c.weights, c.dims, c.k, c.options));
  });
}

}  // namespace
}  // namespace cwgl::cluster
