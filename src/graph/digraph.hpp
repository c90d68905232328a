#pragma once

#include <span>
#include <vector>

namespace cwgl::graph {

/// A directed edge between vertex indices.
struct Edge {
  int from = 0;
  int to = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable directed graph in compressed-sparse-row form.
///
/// Both successor and predecessor adjacency are materialized (the DAG
/// algorithms need O(1) access to each), sorted ascending, with duplicate
/// edges removed. Vertices are dense integers [0, n). The representation is
/// compact and cache-friendly per the job sizes in cloud traces (tens of
/// vertices) while scaling to millions of graphs.
class Digraph {
 public:
  /// Empty graph.
  Digraph() = default;

  /// Builds from an edge list. Throws GraphError if any endpoint is outside
  /// [0, num_vertices). Self-loops are preserved (they simply make the
  /// graph non-acyclic and are reported by `is_dag`).
  Digraph(int num_vertices, std::span<const Edge> edges);

  /// Builds from predecessor lists, with no edge list in between: row v,
  /// `sources[offsets[v] .. offsets[v + 1])`, names the tails of v's
  /// in-edges in any order, repeats allowed. The rows are sorted and
  /// deduplicated in place and become the predecessor side; the successor
  /// side is counted out of them. Equals Digraph(n, edges) for the same
  /// edges. Throws GraphError if a vertex lies outside [0, num_vertices)
  /// or `offsets` does not describe num_vertices rows of `sources`.
  static Digraph from_predecessors(int num_vertices, std::vector<int> offsets,
                                   std::vector<int> sources);

  int num_vertices() const noexcept { return n_; }
  int num_edges() const noexcept { return static_cast<int>(succ_.size()); }

  /// Ascending successor (out-neighbor) list of `v`.
  std::span<const int> successors(int v) const noexcept {
    return {succ_.data() + succ_off_[v], succ_.data() + succ_off_[v + 1]};
  }

  /// Ascending predecessor (in-neighbor) list of `v`.
  std::span<const int> predecessors(int v) const noexcept {
    return {pred_.data() + pred_off_[v], pred_.data() + pred_off_[v + 1]};
  }

  int out_degree(int v) const noexcept { return succ_off_[v + 1] - succ_off_[v]; }
  int in_degree(int v) const noexcept { return pred_off_[v + 1] - pred_off_[v]; }

  /// Binary search over the successor row.
  bool has_edge(int from, int to) const noexcept;

  /// Reconstructs the (deduplicated, sorted) edge list.
  std::vector<Edge> edges() const;

  friend bool operator==(const Digraph&, const Digraph&) = default;

 private:
  int n_ = 0;
  std::vector<int> succ_off_{0};
  std::vector<int> succ_;
  std::vector<int> pred_off_{0};
  std::vector<int> pred_;
};

/// Incremental construction helper for code that discovers vertices/edges
/// on the fly (e.g. the trace-to-DAG builder).
class DigraphBuilder {
 public:
  /// Ensures at least `n` vertices exist.
  void reserve_vertices(int n);

  /// Appends a fresh vertex, returning its index.
  int add_vertex();

  /// Records an edge; endpoints must already exist (throws GraphError).
  void add_edge(int from, int to);

  int num_vertices() const noexcept { return n_; }

  /// Finalizes into an immutable Digraph (duplicates collapse).
  Digraph build() const;

 private:
  int n_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace cwgl::graph
