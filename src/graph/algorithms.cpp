#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace cwgl::graph {

std::optional<std::vector<int>> topological_sort(const Digraph& g) {
  const int n = g.num_vertices();
  std::vector<int> indeg(n);
  for (int v = 0; v < n; ++v) indeg[v] = g.in_degree(v);
  std::vector<int> order;
  order.reserve(n);
  // Min-index first so the order is deterministic and stable for tests.
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (int v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push(v);
  }
  while (!ready.empty()) {
    const int v = ready.top();
    ready.pop();
    order.push_back(v);
    for (int w : g.successors(v)) {
      if (--indeg[w] == 0) ready.push(w);
    }
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;
  return order;
}

bool is_dag(const Digraph& g, std::vector<int>& scratch) {
  // Kahn's algorithm keeping only a count: any order of the ready vertices
  // removes all of them exactly when there is no cycle.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  scratch.resize(2 * n);
  int* indeg = scratch.data();
  int* ready = scratch.data() + n;
  std::size_t top = 0;
  for (std::size_t v = 0; v < n; ++v) {
    indeg[v] = g.in_degree(static_cast<int>(v));
    if (indeg[v] == 0) ready[top++] = static_cast<int>(v);
  }
  std::size_t removed = 0;
  while (top > 0) {
    const int v = ready[--top];
    ++removed;
    for (const int w : g.successors(v)) {
      if (--indeg[w] == 0) ready[top++] = w;
    }
  }
  return removed == n;
}

bool is_dag(const Digraph& g) {
  std::vector<int> scratch;
  return is_dag(g, scratch);
}

std::vector<int> sources(const Digraph& g) {
  std::vector<int> out;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.in_degree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<int> sinks(const Digraph& g) {
  std::vector<int> out;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<int> longest_path_levels(const Digraph& g) {
  const auto order = topological_sort(g);
  if (!order) throw util::GraphError("longest_path_levels: graph has a cycle");
  std::vector<int> level(g.num_vertices(), 0);
  for (int v : *order) {
    for (int w : g.successors(v)) {
      level[w] = std::max(level[w], level[v] + 1);
    }
  }
  return level;
}

int critical_path_length(const Digraph& g) {
  if (g.num_vertices() == 0) return 0;
  const auto levels = longest_path_levels(g);
  return *std::max_element(levels.begin(), levels.end()) + 1;
}

std::vector<int> critical_path(const Digraph& g) {
  if (g.num_vertices() == 0) return {};
  const auto levels = longest_path_levels(g);
  int tail = 0;
  for (int v = 1; v < g.num_vertices(); ++v) {
    if (levels[v] > levels[tail]) tail = v;
  }
  std::vector<int> path{tail};
  // Walk backwards: a predecessor on the critical path sits one level up.
  while (levels[path.back()] > 0) {
    const int v = path.back();
    for (int p : g.predecessors(v)) {
      if (levels[p] == levels[v] - 1) {
        path.push_back(p);
        break;
      }
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<int> width_profile(const Digraph& g) {
  if (g.num_vertices() == 0) return {};
  const auto levels = longest_path_levels(g);
  const int depth = *std::max_element(levels.begin(), levels.end()) + 1;
  std::vector<int> widths(depth, 0);
  for (int lv : levels) ++widths[lv];
  return widths;
}

int max_width(const Digraph& g) {
  const auto widths = width_profile(g);
  return widths.empty() ? 0 : *std::max_element(widths.begin(), widths.end());
}

std::vector<std::vector<int>> weakly_connected_components(const Digraph& g) {
  const int n = g.num_vertices();
  std::vector<int> comp(n, -1);
  std::vector<std::vector<int>> components;
  std::vector<int> stack;
  for (int start = 0; start < n; ++start) {
    if (comp[start] != -1) continue;
    const int id = static_cast<int>(components.size());
    components.emplace_back();
    stack.push_back(start);
    comp[start] = id;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      components[id].push_back(v);
      for (int w : g.successors(v)) {
        if (comp[w] == -1) {
          comp[w] = id;
          stack.push_back(w);
        }
      }
      for (int w : g.predecessors(v)) {
        if (comp[w] == -1) {
          comp[w] = id;
          stack.push_back(w);
        }
      }
    }
    std::sort(components[id].begin(), components[id].end());
  }
  return components;
}

bool is_weakly_connected(const Digraph& g) {
  return g.num_vertices() <= 1 || weakly_connected_components(g).size() == 1;
}

std::vector<int> bfs_distances(const Digraph& g, int src, bool undirected) {
  const int n = g.num_vertices();
  if (src < 0 || src >= n) {
    throw util::GraphError("bfs_distances: source vertex out of range");
  }
  std::vector<int> dist(n, -1);
  std::queue<int> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    auto visit = [&](int w) {
      if (dist[w] == -1) {
        dist[w] = dist[v] + 1;
        frontier.push(w);
      }
    };
    for (int w : g.successors(v)) visit(w);
    if (undirected) {
      for (int w : g.predecessors(v)) visit(w);
    }
  }
  return dist;
}

namespace {

/// Bitset reachability: reach[v] marks every vertex reachable from v
/// (excluding v unless on a cycle; inputs here are DAGs).
std::vector<std::vector<bool>> reachability(const Digraph& g,
                                            std::span<const int> topo) {
  const int n = g.num_vertices();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const int v = *it;
    for (int w : g.successors(v)) {
      reach[v][w] = true;
      for (int x = 0; x < n; ++x) {
        if (reach[w][x]) reach[v][x] = true;
      }
    }
  }
  return reach;
}

}  // namespace

Digraph transitive_reduction(const Digraph& g) {
  const auto order = topological_sort(g);
  if (!order) throw util::GraphError("transitive_reduction: graph has a cycle");
  const auto reach = reachability(g, *order);
  std::vector<Edge> kept;
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int w : g.successors(v)) {
      // (v,w) is redundant iff some other successor u of v reaches w.
      bool redundant = false;
      for (int u : g.successors(v)) {
        if (u != w && reach[u][w]) {
          redundant = true;
          break;
        }
      }
      if (!redundant) kept.push_back({v, w});
    }
  }
  return Digraph(g.num_vertices(), kept);
}

std::vector<int> descendant_counts(const Digraph& g) {
  const auto order = topological_sort(g);
  if (!order) throw util::GraphError("descendant_counts: graph has a cycle");
  const auto reach = reachability(g, *order);
  std::vector<int> counts(g.num_vertices(), 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    counts[v] = static_cast<int>(std::count(reach[v].begin(), reach[v].end(), true));
  }
  return counts;
}

}  // namespace cwgl::graph
