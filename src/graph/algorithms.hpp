#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace cwgl::graph {

/// Kahn topological order, or nullopt if the graph contains a cycle.
std::optional<std::vector<int>> topological_sort(const Digraph& g);

/// True iff the graph is acyclic (self-loops count as cycles). Counts the
/// vertices Kahn's algorithm removes instead of ordering them.
bool is_dag(const Digraph& g);

/// is_dag working in `scratch` (resized to 2n), so a caller that keeps
/// it checks graph after graph without allocating.
bool is_dag(const Digraph& g, std::vector<int>& scratch);

/// Vertices with in-degree zero, ascending ("input" tasks).
std::vector<int> sources(const Digraph& g);

/// Vertices with out-degree zero, ascending ("output" tasks).
std::vector<int> sinks(const Digraph& g);

/// Longest-path layering: level[v] = length (in edges) of the longest path
/// from any source to v; sources sit at level 0. Throws GraphError on a
/// cyclic input. This is the paper's notion of the "level" of a task.
std::vector<int> longest_path_levels(const Digraph& g);

/// The paper's "critical path": the number of VERTICES on the longest
/// directed path (a 2-task chain has critical path 2). Equals
/// max(longest_path_levels)+1; 0 for the empty graph.
int critical_path_length(const Digraph& g);

/// One concrete longest path as a vertex sequence (empty for empty graph).
std::vector<int> critical_path(const Digraph& g);

/// Number of vertices on each longest-path level (index = level).
std::vector<int> width_profile(const Digraph& g);

/// The paper's "maximum width" / degree of parallelism: the largest level
/// population. 0 for the empty graph.
int max_width(const Digraph& g);

/// Weakly connected components; each inner vector lists member vertices
/// ascending, components ordered by smallest member.
std::vector<std::vector<int>> weakly_connected_components(const Digraph& g);

/// True iff the graph is weakly connected (vacuously true when n <= 1).
bool is_weakly_connected(const Digraph& g);

/// BFS hop distances from `src` (-1 where unreachable). When `undirected`
/// is true, edges are traversed both ways (used by the shortest-path
/// kernel so that parallel branches still relate).
std::vector<int> bfs_distances(const Digraph& g, int src, bool undirected = false);

/// Removes every edge implied by transitivity. DAG-only (throws GraphError
/// otherwise). O(V * E) via reachability propagation — fine for job-sized
/// graphs.
Digraph transitive_reduction(const Digraph& g);

/// Per-vertex reachable-set sizes, i.e. |descendants(v)| excluding v.
/// DAG-only. Used by characterization reports to gauge fan-out influence.
std::vector<int> descendant_counts(const Digraph& g);

}  // namespace cwgl::graph
