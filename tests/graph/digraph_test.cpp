#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/error.hpp"

namespace cwgl::graph {
namespace {

TEST(Digraph, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Digraph, VerticesWithoutEdges) {
  Digraph g(4, {});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 0);
  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(g.successors(v).empty());
    EXPECT_TRUE(g.predecessors(v).empty());
  }
}

TEST(Digraph, AdjacencyBothDirections) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 2}};
  Digraph g(3, edges);
  EXPECT_EQ(g.num_edges(), 3);
  ASSERT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.successors(0)[0], 1);
  EXPECT_EQ(g.successors(0)[1], 2);
  ASSERT_EQ(g.predecessors(2).size(), 2u);
  EXPECT_EQ(g.predecessors(2)[0], 0);
  EXPECT_EQ(g.predecessors(2)[1], 1);
  EXPECT_EQ(g.in_degree(2), 2);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(0), 0);
}

TEST(Digraph, DuplicateEdgesCollapse) {
  const std::vector<Edge> edges{{0, 1}, {0, 1}, {0, 1}};
  Digraph g(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Digraph, SuccessorsSortedRegardlessOfInsertionOrder) {
  const std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}};
  Digraph g(4, edges);
  const auto succ = g.successors(0);
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_TRUE(std::is_sorted(succ.begin(), succ.end()));
}

TEST(Digraph, HasEdge) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  Digraph g(3, edges);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(Digraph, OutOfRangeEdgeThrows) {
  const std::vector<Edge> bad{{0, 5}};
  EXPECT_THROW(Digraph(3, bad), util::GraphError);
  const std::vector<Edge> negative{{-1, 0}};
  EXPECT_THROW(Digraph(3, negative), util::GraphError);
}

TEST(Digraph, NegativeVertexCountThrows) {
  EXPECT_THROW(Digraph(-1, {}), util::GraphError);
}

TEST(Digraph, EdgesRoundTrip) {
  const std::vector<Edge> edges{{2, 0}, {0, 1}, {1, 2}};
  Digraph g(3, edges);
  const auto out = g.edges();
  ASSERT_EQ(out.size(), 3u);
  Digraph h(3, out);
  EXPECT_EQ(g, h);
}

TEST(Digraph, EqualityIsStructural) {
  const std::vector<Edge> a{{0, 1}, {1, 2}};
  const std::vector<Edge> b{{1, 2}, {0, 1}};
  EXPECT_EQ(Digraph(3, a), Digraph(3, b));
  EXPECT_NE(Digraph(3, a), Digraph(4, a));
}

TEST(Digraph, SelfLoopPreserved) {
  const std::vector<Edge> edges{{1, 1}};
  Digraph g(2, edges);
  EXPECT_TRUE(g.has_edge(1, 1));
  EXPECT_EQ(g.in_degree(1), 1);
  EXPECT_EQ(g.out_degree(1), 1);
}

TEST(DigraphBuilder, IncrementalConstruction) {
  DigraphBuilder b;
  const int v0 = b.add_vertex();
  const int v1 = b.add_vertex();
  const int v2 = b.add_vertex();
  b.add_edge(v0, v1);
  b.add_edge(v1, v2);
  const Digraph g = b.build();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(DigraphBuilder, ReserveVerticesNeverShrinks) {
  DigraphBuilder b;
  b.reserve_vertices(5);
  b.reserve_vertices(2);
  EXPECT_EQ(b.num_vertices(), 5);
}

TEST(DigraphBuilder, EdgeBeforeVertexThrows) {
  DigraphBuilder b;
  b.add_vertex();
  EXPECT_THROW(b.add_edge(0, 1), util::GraphError);
}

// Predecessor lists with repeats and self-loops, in any order, build the
// graph the edge list builds; is_dag's count agrees with a topological
// order on every one of them.
TEST(Digraph, FromPredecessorsEqualsTheEdgeListBuild) {
  std::mt19937_64 rng(26);
  for (int round = 0; round < 500; ++round) {
    const int n = static_cast<int>(rng() % 12);
    std::vector<int> offsets{0};
    std::vector<int> sources;
    std::vector<Edge> edges;
    for (int v = 0; v < n; ++v) {
      const int deps = static_cast<int>(rng() % 4);
      for (int d = 0; d < deps; ++d) {
        // Mostly earlier vertices, so most graphs are acyclic.
        const int u = rng() % 5 == 0 ? static_cast<int>(rng() % n)
                                     : (v == 0 ? 0 : static_cast<int>(rng() % v));
        sources.push_back(u);
        edges.push_back({u, v});
      }
      offsets.push_back(static_cast<int>(sources.size()));
    }
    const Digraph built = Digraph::from_predecessors(n, offsets, sources);
    const Digraph expected(n, edges);
    EXPECT_EQ(built, expected) << "round " << round;
    std::vector<int> scratch;
    EXPECT_EQ(is_dag(built, scratch), topological_sort(expected).has_value())
        << "round " << round;
  }
}

TEST(Digraph, FromPredecessorsRejectsBadInput) {
  EXPECT_THROW(Digraph::from_predecessors(2, {0, 1, 2}, {0, 2}), util::GraphError);
  EXPECT_THROW(Digraph::from_predecessors(2, {0, 1, 2}, {0, -1}), util::GraphError);
  EXPECT_THROW(Digraph::from_predecessors(2, {0, 1}, {0}), util::GraphError);
  EXPECT_THROW(Digraph::from_predecessors(2, {0, 2, 1}, {0, 1}), util::GraphError);
  EXPECT_THROW(Digraph::from_predecessors(-1, {0}, {}), util::GraphError);
}

}  // namespace
}  // namespace cwgl::graph
