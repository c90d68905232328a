#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"

namespace cwgl::kernel {

/// A graph together with integer vertex labels (task types in the paper).
/// An empty label vector means "uniformly labeled".
struct LabeledGraph {
  graph::Digraph graph;
  std::vector<int> labels;

  /// Returns the label of `v`, treating an empty label vector as all-zero.
  int label(int v) const noexcept {
    return labels.empty() ? 0 : labels[static_cast<std::size_t>(v)];
  }
};

/// Sparse non-negative feature vector with ascending unique ids.
/// The kernel value between two graphs is the dot product of their vectors.
struct SparseVector {
  std::vector<std::pair<int, double>> items;

  friend bool operator==(const SparseVector&, const SparseVector&) = default;

  /// Dot product; O(nnz_a + nnz_b) merge in the balanced case, galloping
  /// (exponential + binary search over the longer vector) when one side is
  /// much shorter, which takes O(nnz_short * log nnz_long). Both paths
  /// accumulate the matched products in the same ascending-id order, so the
  /// result is bitwise identical to `dot_scalar` — a property the sparse-dot
  /// test suite pins on random corpora.
  double dot(const SparseVector& other) const noexcept;

  /// The reference scalar two-pointer merge. Kept as the oracle the fast
  /// path is differentially tested against; not for hot-path use.
  double dot_scalar(const SparseVector& other) const noexcept;

  /// Euclidean norm.
  double norm() const noexcept;

  /// Builds from an unordered (id -> count) accumulation.
  static SparseVector from_counts(const std::unordered_map<int, double>& counts);
};

/// Transparent (heterogeneous) string hash: lets unordered_map lookups take
/// a string_view without materializing a temporary std::string, so the
/// dictionary's hit path allocates nothing.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Interns arbitrary byte-string signatures to dense consecutive ids in
/// first-seen order. Shared across a corpus so identical substructures map
/// to the same feature dimension in every graph.
///
/// intern() is single-threaded: featurization runs serially, once per
/// distinct shape, so ids are a pure function of the input order. find() is
/// const and takes no lock. Once interning has stopped (a model's
/// dictionary is frozen when it loads), any number of threads may call
/// find() concurrently: concurrent const reads of an unordered_map do not
/// race.
class SignatureDictionary {
 public:
  /// Returns the id of `key`, assigning the next free id on first sight.
  int intern(std::string_view key);

  /// The id of `key`, or nullopt when it was never interned. Never inserts.
  std::optional<int> find(std::string_view key) const;

  /// Every interned signature; entry i is the one with id i.
  std::vector<std::string> signatures() const;

  std::size_t size() const noexcept { return map_.size(); }

 private:
  std::unordered_map<std::string, int, TransparentStringHash, std::equal_to<>>
      map_;
};

/// Abstract graph-to-feature-vector transform backing a kernel.
///
/// Implementations intern signatures into a dictionary shared across all
/// calls, so a single instance must featurize a whole corpus for the
/// resulting vectors to be comparable. featurize() mutates that dictionary
/// and is not thread-safe.
class Featurizer {
 public:
  virtual ~Featurizer() = default;

  /// Maps a graph into the shared feature space.
  virtual SparseVector featurize(const LabeledGraph& g) = 0;

  /// Identifier used in reports ("wl-subtree", "vertex-histogram", ...).
  virtual std::string_view name() const noexcept = 0;
};

/// Raw (unnormalized) kernel value between two graphs under `f`.
double kernel_value(Featurizer& f, const LabeledGraph& a, const LabeledGraph& b);

/// Cosine-normalized kernel: k(a,b) / sqrt(k(a,a) k(b,b)), in [0,1] for
/// non-negative features; 0 when either self-kernel vanishes.
double normalized_kernel_value(Featurizer& f, const LabeledGraph& a,
                               const LabeledGraph& b);

}  // namespace cwgl::kernel
