#include "graph/canonical.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::graph {

namespace {

constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  util::SplitMix64 sm(x);
  return sm();
}

/// Where every multiset's fold starts: the hash of the empty multiset.
constexpr std::uint64_t kEmptyMultiset = 0x9e3779b97f4a7c15ULL;
/// mix() of it, the in-hash of every source vertex.
constexpr std::uint64_t kMixedEmptyMultiset = mix(kEmptyMultiset);

/// Hash of a multiset of hashes: its values folded in ascending order.
/// Sorts `values`.
std::uint64_t hash_multiset(std::vector<std::uint64_t>& values) {
  std::sort(values.begin(), values.end());
  std::uint64_t h = kEmptyMultiset;
  for (const std::uint64_t v : values) h = util::hash_combine(h, v);
  return h;
}

/// hash_multiset of the colors of `row`'s vertices. Most job vertices have
/// at most two neighbours on a side: those are folded in order straight
/// from the CSR row; more are gathered and sorted in `buffer`.
std::uint64_t hash_neighbors(std::span<const int> row,
                             const std::vector<std::uint64_t>& color,
                             std::vector<std::uint64_t>& buffer) {
  switch (row.size()) {
    case 0:
      return kEmptyMultiset;
    case 1:
      return util::hash_combine(kEmptyMultiset, color[row[0]]);
    case 2: {
      const std::uint64_t a = color[row[0]];
      const std::uint64_t b = color[row[1]];
      return util::hash_combine(
          util::hash_combine(kEmptyMultiset, std::min(a, b)), std::max(a, b));
    }
    default:
      buffer.clear();
      for (const int w : row) buffer.push_back(color[w]);
      return hash_multiset(buffer);
  }
}

}  // namespace

std::uint64_t canonical_hash(const Digraph& g, std::span<const int> labels,
                             int iterations) {
  const int n = g.num_vertices();
  if (!labels.empty() && static_cast<int>(labels.size()) != n) {
    throw util::InvalidArgument("canonical_hash: labels size != vertex count");
  }
  if (n == 0) return 0x5ca1ab1e;
  if (iterations < 0) iterations = n;

  std::vector<std::uint64_t> color(n);
  for (int v = 0; v < n; ++v) {
    color[v] = mix(labels.empty() ? 0x1234 : static_cast<std::uint64_t>(labels[v]) + 0x1000);
  }
  std::vector<std::uint64_t> next(n);
  std::vector<std::uint64_t> buffer;
  for (int it = 0; it < iterations; ++it) {
    for (int v = 0; v < n; ++v) {
      const std::span<const int> in = g.predecessors(v);
      const std::uint64_t in_hash =
          in.empty() ? kMixedEmptyMultiset
                     : mix(hash_neighbors(in, color, buffer));
      const std::uint64_t out_hash =
          hash_neighbors(g.successors(v), color, buffer);
      next[v] = mix(util::hash_combine(color[v],
                                       util::hash_combine(in_hash, out_hash)));
    }
    color.swap(next);
  }
  return util::hash_combine(static_cast<std::uint64_t>(n), hash_multiset(color));
}

}  // namespace cwgl::graph
