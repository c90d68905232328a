#pragma once

// The reference implementation of graph::canonical_hash: every in- and
// out-neighbour multiset gathered and sorted, as the function stood before
// it folded small multisets without a sort. The property tests hold the
// library's version to this one bit for bit: every stored shape key and
// every census tie order depends on those bits.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace cwgl::oracle {

inline std::uint64_t canonical_mix(std::uint64_t x) noexcept {
  util::SplitMix64 sm(x);
  return sm();
}

/// Hash of a sorted multiset of hashes (order-independent by pre-sorting).
inline std::uint64_t hash_multiset(std::vector<std::uint64_t>& values) {
  std::sort(values.begin(), values.end());
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t v : values) h = util::hash_combine(h, v);
  return h;
}

inline std::uint64_t canonical_hash(const graph::Digraph& g,
                                    std::span<const int> labels,
                                    int iterations = -1) {
  const int n = g.num_vertices();
  if (n == 0) return 0x5ca1ab1e;
  if (iterations < 0) iterations = n;

  std::vector<std::uint64_t> color(n);
  for (int v = 0; v < n; ++v) {
    color[v] = canonical_mix(
        labels.empty() ? 0x1234 : static_cast<std::uint64_t>(labels[v]) + 0x1000);
  }
  std::vector<std::uint64_t> next(n);
  std::vector<std::uint64_t> bucket;
  for (int it = 0; it < iterations; ++it) {
    for (int v = 0; v < n; ++v) {
      bucket.clear();
      for (int w : g.predecessors(v)) bucket.push_back(color[w]);
      const std::uint64_t in_hash = hash_multiset(bucket);
      bucket.clear();
      for (int w : g.successors(v)) bucket.push_back(color[w]);
      const std::uint64_t out_hash = hash_multiset(bucket);
      next[v] = canonical_mix(util::hash_combine(
          color[v], util::hash_combine(canonical_mix(in_hash), out_hash)));
    }
    color.swap(next);
  }
  std::vector<std::uint64_t> all(color.begin(), color.end());
  return util::hash_combine(static_cast<std::uint64_t>(n), hash_multiset(all));
}

}  // namespace cwgl::oracle
