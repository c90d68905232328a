#include "graph/canonical.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/digraph.hpp"
#include "graph/isomorphism.hpp"
#include "support/canonical_oracle.hpp"
#include "support/proptest.hpp"

namespace cwgl::graph {
namespace {

using cwgl::proptest::permuted;
using cwgl::proptest::random_job_graph;
using cwgl::proptest::random_permutation;
using cwgl::proptest::run_cases;

// ---------------------------------------------------------------------------
// Invariance: relabeling vertices through any permutation must never change
// the canonical hash — this is the property ShapeStore's dedup rests on.
// ---------------------------------------------------------------------------

TEST(CanonicalHashProperty, InvariantUnderVertexPermutation) {
  run_cases(0xCA50'0001ULL, 60, [](util::Xoshiro256StarStar& rng) {
    const kernel::LabeledGraph g = random_job_graph(rng, 2, 14);
    const std::uint64_t h = canonical_hash(g.graph, g.labels);
    const auto perm = random_permutation(g.graph.num_vertices(), rng);
    const kernel::LabeledGraph iso = permuted(g, perm);
    EXPECT_EQ(canonical_hash(iso.graph, iso.labels), h);
  });
}

TEST(CanonicalHashProperty, AgreesWithExactIsomorphismOnPermutedCopies) {
  run_cases(0xCA50'0002ULL, 30, [](util::Xoshiro256StarStar& rng) {
    const kernel::LabeledGraph g = random_job_graph(rng, 2, 10);
    const auto perm = random_permutation(g.graph.num_vertices(), rng);
    const kernel::LabeledGraph iso = permuted(g, perm);
    ASSERT_TRUE(are_isomorphic(g.graph, g.labels, iso.graph, iso.labels));
    EXPECT_EQ(canonical_hash(g.graph, g.labels),
              canonical_hash(iso.graph, iso.labels));
  });
}

// ---------------------------------------------------------------------------
// Bits: the hash folds neighbour multisets of up to two colors without a
// sort, so it must return the sorting reference's value on every graph —
// stored shape keys and the census tie order depend on them.
// ---------------------------------------------------------------------------

TEST(CanonicalHashProperty, MatchesTheSortingReferenceOnRandomDigraphs) {
  run_cases(0xCA50'0101ULL, 400, [](util::Xoshiro256StarStar& rng) {
    const int n = rng.uniform_int(1, 64);
    // Densities from a sparse job-like graph to dense, cycles and
    // self-loops included, so every multiset size shows up.
    const double density = rng.uniform01() * (rng.bernoulli(0.5) ? 0.1 : 0.6);
    std::vector<Edge> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (rng.bernoulli(density)) edges.push_back({u, v});
      }
    }
    const Digraph g(n, edges);
    std::vector<int> labels;
    if (rng.bernoulli(0.5)) {
      for (int v = 0; v < n; ++v) labels.push_back(rng.uniform_int(0, 3));
    }
    EXPECT_EQ(canonical_hash(g, labels), oracle::canonical_hash(g, labels));
    const int iterations = rng.uniform_int(0, 3);
    EXPECT_EQ(canonical_hash(g, labels, iterations),
              oracle::canonical_hash(g, labels, iterations));
  });
}

TEST(CanonicalHashProperty, MatchesTheSortingReferenceOnJobGraphs) {
  run_cases(0xCA50'0102ULL, 300, [](util::Xoshiro256StarStar& rng) {
    const kernel::LabeledGraph g = random_job_graph(rng, 2, 64);
    EXPECT_EQ(canonical_hash(g.graph, g.labels),
              oracle::canonical_hash(g.graph, g.labels));
    EXPECT_EQ(canonical_hash(g.graph, {}), oracle::canonical_hash(g.graph, {}));
  });
}

// ---------------------------------------------------------------------------
// Sensitivity: perturbing a label or an edge must move the hash. WL + a
// 64-bit mix is not a perfect invariant, so this is technically
// probabilistic — but a single collision here would also break the intern
// table's usefulness, so we want to hear about it.
// ---------------------------------------------------------------------------

TEST(CanonicalHashProperty, SensitiveToSingleLabelChange) {
  run_cases(0xCA50'0003ULL, 60, [](util::Xoshiro256StarStar& rng) {
    kernel::LabeledGraph g = random_job_graph(rng, 2, 14);
    const std::uint64_t h = canonical_hash(g.graph, g.labels);
    const int v = rng.uniform_int(0, g.graph.num_vertices() - 1);
    g.labels[static_cast<std::size_t>(v)] += 1;  // a label no vertex has
    EXPECT_NE(canonical_hash(g.graph, g.labels), h);
  });
}

TEST(CanonicalHashProperty, SensitiveToEdgeRemoval) {
  run_cases(0xCA50'0004ULL, 60, [](util::Xoshiro256StarStar& rng) {
    const kernel::LabeledGraph g = random_job_graph(rng, 3, 14);
    const auto edges = g.graph.edges();
    if (edges.empty()) return;
    const std::uint64_t h = canonical_hash(g.graph, g.labels);
    const std::size_t drop = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(edges.size()) - 1));
    std::vector<Edge> pruned;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i != drop) pruned.push_back(edges[i]);
    }
    const Digraph smaller(g.graph.num_vertices(), pruned);
    EXPECT_NE(canonical_hash(smaller, g.labels), h);
  });
}

// ---------------------------------------------------------------------------
// Curated near-isomorphic pairs: same vertex count, same degree sequence or
// same undirected skeleton, yet NOT isomorphic. These are the adversarial
// cases a weaker invariant (degree histogram, undirected WL) would merge.
// ---------------------------------------------------------------------------

struct NamedPair {
  const char* name;
  Digraph a;
  std::vector<int> labels_a;
  Digraph b;
  std::vector<int> labels_b;
};

Digraph make(int n, const std::vector<Edge>& edges) {
  return Digraph(n, edges);
}

std::vector<NamedPair> near_isomorphic_pairs() {
  std::vector<NamedPair> pairs;
  // Chain vs fan-in: same size, same edge count.
  pairs.push_back(NamedPair{"chain3-vs-fanin3",
                            make(3, {{0, 1}, {1, 2}}), {},
                            make(3, {{0, 2}, {1, 2}}), {}});
  // Fan-out vs fan-in: identical undirected skeletons, reversed edges.
  pairs.push_back(NamedPair{"fanout3-vs-fanin3",
                            make(3, {{0, 1}, {0, 2}}), {},
                            make(3, {{1, 0}, {2, 0}}), {}});
  // Diamond vs "double chain": 4 vertices, 4 edges each, one source and one
  // sink each, but different in/out degree multisets at the middle layer.
  pairs.push_back(NamedPair{"diamond-vs-kite",
                            make(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}), {},
                            make(4, {{0, 1}, {1, 2}, {1, 3}, {2, 3}}), {}});
  // Two chains vs one chain + isolated pair: same vertex count and total
  // edges, different component structure.
  pairs.push_back(NamedPair{"2x-chain2-vs-chain3-plus-isolated",
                            make(4, {{0, 1}, {2, 3}}), {},
                            make(4, {{0, 1}, {1, 2}}), {}});
  // Same topology, different label placement: a chain M->R->R vs M->M->R.
  pairs.push_back(NamedPair{"chain-label-placement",
                            make(3, {{0, 1}, {1, 2}}), {'M', 'R', 'R'},
                            make(3, {{0, 1}, {1, 2}}), {'M', 'M', 'R'}});
  // Inverted triangle vs trapezium-ish merge: 5 vertices, 4 edges.
  pairs.push_back(NamedPair{"invtriangle-vs-deep-merge",
                            make(5, {{0, 4}, {1, 4}, {2, 4}, {3, 4}}), {},
                            make(5, {{0, 3}, {1, 3}, {2, 4}, {3, 4}}), {}});
  return pairs;
}

TEST(CanonicalHashProperty, CuratedNearIsomorphicPairsDoNotCollide) {
  for (const NamedPair& pair : near_isomorphic_pairs()) {
    SCOPED_TRACE(pair.name);
    ASSERT_FALSE(
        are_isomorphic(pair.a, pair.labels_a, pair.b, pair.labels_b));
    EXPECT_NE(canonical_hash(pair.a, pair.labels_a),
              canonical_hash(pair.b, pair.labels_b));
  }
}

// ---------------------------------------------------------------------------
// Cross-corpus consistency: within a random corpus, hash equality must
// coincide with exact isomorphism (both directions) at job scale.
// ---------------------------------------------------------------------------

TEST(CanonicalHashProperty, HashEqualityMatchesIsomorphismWithinCorpus) {
  run_cases(0xCA50'0005ULL, 6, [](util::Xoshiro256StarStar& rng) {
    const auto corpus = cwgl::proptest::random_corpus(rng, 12, 2, 8);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      for (std::size_t j = i + 1; j < corpus.size(); ++j) {
        const bool same_hash =
            canonical_hash(corpus[i].graph, corpus[i].labels) ==
            canonical_hash(corpus[j].graph, corpus[j].labels);
        const bool iso = are_isomorphic(corpus[i].graph, corpus[i].labels,
                                        corpus[j].graph, corpus[j].labels);
        EXPECT_EQ(same_hash, iso)
            << "pair (" << i << ", " << j << ") disagrees";
      }
    }
  });
}

}  // namespace
}  // namespace cwgl::graph
