// Differential + property harness for the pooled Gram stage. Featurization
// is serial; the pool runs only the tiled dot products. The pooled matrix
// must be indistinguishable from the serial one, and both must satisfy the
// kernel axioms on random job-DAG corpora.
//
// Why equality holds by construction: both paths featurize serially through
// a fresh dictionary, so their vectors carry the same ids, and every Gram
// entry is one independent dot product whichever worker computes it. The
// matrices are then bitwise identical; the normalized and weighted cases
// assert the looser 1e-12 bound they were written with.

#include <gtest/gtest.h>

#include <vector>

#include "kernel/gram.hpp"
#include "kernel/wl.hpp"
#include "linalg/eigen.hpp"
#include "support/proptest.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::kernel {
namespace {

TEST(WlParallelDifferential, UnweightedGramIsBitwiseEqualToSerial) {
  util::ThreadPool pool(4);
  proptest::run_cases(0xD1FF0001, 6, [&](util::Xoshiro256StarStar& rng) {
    const auto corpus = proptest::random_corpus(rng, 40);
    WlSubtreeFeaturizer serial_f, parallel_f;
    GramOptions unnormalized;
    unnormalized.normalize = false;
    const auto serial = gram_matrix(serial_f, corpus, unnormalized);
    const auto parallel = gram_matrix(parallel_f, corpus, unnormalized, &pool);
    // Integer-valued features: any summation order is exact, so the two
    // schedules agree bit for bit.
    EXPECT_EQ(serial.max_abs_diff(parallel), 0.0);
  });
}

TEST(WlParallelDifferential, NormalizedGramMatchesSerialWithin1e12) {
  util::ThreadPool pool(4);
  proptest::run_cases(0xD1FF0002, 6, [&](util::Xoshiro256StarStar& rng) {
    const auto corpus = proptest::random_corpus(rng, 40);
    WlSubtreeFeaturizer serial_f, parallel_f;
    const auto serial = gram_matrix(serial_f, corpus);
    const auto parallel = gram_matrix(parallel_f, corpus, {}, &pool);
    EXPECT_LE(serial.max_abs_diff(parallel), 1e-12);
  });
}

TEST(WlParallelDifferential, WeightedIterationsMatchSerialWithin1e12) {
  util::ThreadPool pool(4);
  proptest::run_cases(0xD1FF0003, 4, [&](util::Xoshiro256StarStar& rng) {
    WlConfig cfg;
    cfg.iterations = 3;
    cfg.iteration_weights = {1.0, 0.5, 0.25, 0.125};
    const auto corpus = proptest::random_corpus(rng, 30);
    WlSubtreeFeaturizer serial_f(cfg), parallel_f(cfg);
    const auto serial = gram_matrix(serial_f, corpus);
    const auto parallel = gram_matrix(parallel_f, corpus, {}, &pool);
    EXPECT_LE(serial.max_abs_diff(parallel), 1e-12);
  });
}

TEST(WlParallelDifferential, FineGrainScheduleStillMatches) {
  // One-row tiles make every pair its own scheduling unit — the most
  // interleaved schedule the pooled dot products can take.
  util::ThreadPool pool(4);
  proptest::run_cases(0xD1FF0004, 4, [&](util::Xoshiro256StarStar& rng) {
    const auto corpus = proptest::random_corpus(rng, 25);
    WlSubtreeFeaturizer serial_f, parallel_f;
    GramOptions fine;
    fine.tile_rows = 1;
    const auto serial = gram_matrix(serial_f, corpus);
    const auto parallel = gram_matrix(parallel_f, corpus, fine, &pool);
    EXPECT_LE(serial.max_abs_diff(parallel), 1e-12);
  });
}

TEST(WlParallelProperty, GramStaysPositiveSemidefinite) {
  util::ThreadPool pool(4);
  proptest::run_cases(0xD1FF0005, 4, [&](util::Xoshiro256StarStar& rng) {
    const auto corpus = proptest::random_corpus(rng, 16);
    WlSubtreeFeaturizer f;
    const auto gram = gram_matrix(f, corpus, {}, &pool);
    EXPECT_TRUE(gram.is_symmetric(1e-12));
    EXPECT_TRUE(linalg::is_positive_semidefinite(gram, 1e-7));
  });
}

TEST(WlParallelProperty, SelfSimilarityIsOneAfterNormalization) {
  util::ThreadPool pool(4);
  proptest::run_cases(0xD1FF0006, 6, [&](util::Xoshiro256StarStar& rng) {
    const auto corpus = proptest::random_corpus(rng, 24);
    WlSubtreeFeaturizer f;
    const auto gram = gram_matrix(f, corpus, {}, &pool);
    for (std::size_t i = 0; i < gram.rows(); ++i) {
      EXPECT_NEAR(gram(i, i), 1.0, 1e-12);
    }
  });
}

TEST(WlParallelProperty, VertexPermutationInvariance) {
  // An isomorphic copy must land on exactly the same feature multiset, so
  // the parallel Gram over {g, permuted(g)} pairs has unit off-diagonals.
  util::ThreadPool pool(4);
  proptest::run_cases(0xD1FF0007, 6, [&](util::Xoshiro256StarStar& rng) {
    std::vector<LabeledGraph> corpus;
    for (int i = 0; i < 10; ++i) {
      auto g = proptest::random_job_graph(rng, 2, 14);
      const auto perm = proptest::random_permutation(g.graph.num_vertices(), rng);
      corpus.push_back(proptest::permuted(g, perm));
      corpus.push_back(std::move(g));
    }
    WlSubtreeFeaturizer f;
    const auto gram = gram_matrix(f, corpus, {}, &pool);
    for (std::size_t p = 0; p < corpus.size(); p += 2) {
      EXPECT_NEAR(gram(p, p + 1), 1.0, 1e-12) << "pair " << p / 2;
    }
  });
}

TEST(WlParallelDifferential, NullPoolAndSerialFeaturizerAgree) {
  // pool == nullptr must stay exactly the historical serial behavior.
  proptest::run_cases(0xD1FF000A, 3, [&](util::Xoshiro256StarStar& rng) {
    const auto corpus = proptest::random_corpus(rng, 20);
    WlSubtreeFeaturizer a, b;
    const auto first = gram_matrix(a, corpus);
    const auto second = gram_matrix(b, corpus, {}, nullptr);
    EXPECT_EQ(first.max_abs_diff(second), 0.0);
  });
}

}  // namespace
}  // namespace cwgl::kernel
