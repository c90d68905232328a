#include "graph/digraph.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace cwgl::graph {

namespace {

/// Builds one CSR side (offsets + sorted unique targets) from edges keyed by
/// `key` with value `val`.
void build_csr(int n, std::span<const Edge> edges, bool by_source,
               std::vector<int>& offsets, std::vector<int>& targets) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    const int key = by_source ? e.from : e.to;
    ++offsets[key + 1];
  }
  for (int v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  targets.resize(edges.size());
  std::vector<int> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    const int key = by_source ? e.from : e.to;
    const int val = by_source ? e.to : e.from;
    targets[cursor[key]++] = val;
  }
  for (int v = 0; v < n; ++v) {
    std::sort(targets.begin() + offsets[v], targets.begin() + offsets[v + 1]);
  }
}

}  // namespace

Digraph::Digraph(int num_vertices, std::span<const Edge> edges) : n_(num_vertices) {
  if (num_vertices < 0) {
    throw util::GraphError("Digraph: negative vertex count");
  }
  std::vector<Edge> unique_edges(edges.begin(), edges.end());
  for (const Edge& e : unique_edges) {
    if (e.from < 0 || e.from >= n_ || e.to < 0 || e.to >= n_) {
      throw util::GraphError("Digraph: edge (" + std::to_string(e.from) + "," +
                             std::to_string(e.to) + ") outside [0," +
                             std::to_string(n_) + ")");
    }
  }
  std::sort(unique_edges.begin(), unique_edges.end(),
            [](const Edge& a, const Edge& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  unique_edges.erase(std::unique(unique_edges.begin(), unique_edges.end()),
                     unique_edges.end());
  build_csr(n_, unique_edges, /*by_source=*/true, succ_off_, succ_);
  build_csr(n_, unique_edges, /*by_source=*/false, pred_off_, pred_);
}

Digraph Digraph::from_predecessors(int num_vertices, std::vector<int> offsets,
                                   std::vector<int> sources) {
  const auto n = static_cast<std::size_t>(std::max(num_vertices, 0));
  if (num_vertices < 0 || offsets.size() != n + 1 || offsets.front() != 0 ||
      static_cast<std::size_t>(offsets.back()) != sources.size()) {
    throw util::GraphError("Digraph: predecessor offsets do not match");
  }
  // Sort and deduplicate each row, compacting the rows to the front.
  int kept = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const int begin = offsets[v];
    const int end = offsets[v + 1];
    if (begin > end) {
      throw util::GraphError("Digraph: predecessor offsets do not match");
    }
    for (int i = begin; i < end; ++i) {
      if (sources[i] < 0 || sources[i] >= num_vertices) {
        throw util::GraphError("Digraph: edge (" + std::to_string(sources[i]) +
                               "," + std::to_string(v) + ") outside [0," +
                               std::to_string(num_vertices) + ")");
      }
    }
    std::sort(sources.begin() + begin, sources.begin() + end);
    offsets[v] = kept;
    for (int i = begin; i < end; ++i) {
      if (i == begin || sources[i] != sources[i - 1]) sources[kept++] = sources[i];
    }
  }
  offsets[n] = kept;
  sources.resize(static_cast<std::size_t>(kept));

  Digraph g;
  g.n_ = num_vertices;
  // Successor rows: succ_off_[u] is u's start while counting and then its
  // fill cursor, which ends at u's end; one shift turns ends into starts.
  // Visiting heads in ascending order leaves every row sorted.
  g.succ_off_.assign(n + 1, 0);
  for (const int u : sources) ++g.succ_off_[static_cast<std::size_t>(u) + 1];
  for (std::size_t u = 0; u < n; ++u) g.succ_off_[u + 1] += g.succ_off_[u];
  for (std::size_t u = n; u > 0; --u) g.succ_off_[u] = g.succ_off_[u - 1];
  g.succ_.resize(sources.size());
  for (std::size_t v = 0; v < n; ++v) {
    for (int i = offsets[v]; i < offsets[v + 1]; ++i) {
      g.succ_[g.succ_off_[static_cast<std::size_t>(sources[i]) + 1]++] =
          static_cast<int>(v);
    }
  }
  g.pred_off_ = std::move(offsets);
  g.pred_ = std::move(sources);
  return g;
}

bool Digraph::has_edge(int from, int to) const noexcept {
  if (from < 0 || from >= n_ || to < 0 || to >= n_) return false;
  const auto row = successors(from);
  return std::binary_search(row.begin(), row.end(), to);
}

std::vector<Edge> Digraph::edges() const {
  std::vector<Edge> out;
  out.reserve(succ_.size());
  for (int v = 0; v < n_; ++v) {
    for (int w : successors(v)) out.push_back({v, w});
  }
  return out;
}

void DigraphBuilder::reserve_vertices(int n) {
  if (n > n_) n_ = n;
}

int DigraphBuilder::add_vertex() { return n_++; }

void DigraphBuilder::add_edge(int from, int to) {
  if (from < 0 || from >= n_ || to < 0 || to >= n_) {
    throw util::GraphError("DigraphBuilder: edge endpoint outside current vertex set");
  }
  edges_.push_back({from, to});
}

Digraph DigraphBuilder::build() const { return Digraph(n_, edges_); }

}  // namespace cwgl::graph
