#pragma once

#include "kernel/types.hpp"

namespace cwgl::kernel {

/// Vertex-label histogram features: k(G,G') counts matching label pairs.
/// The weakest baseline — blind to all structure.
class VertexHistogramFeaturizer final : public Featurizer {
 public:
  SparseVector featurize(const LabeledGraph& g) override;
  std::string_view name() const noexcept override { return "vertex-histogram"; }

 private:
  SignatureDictionary dict_;
};

/// Directed-edge label-pair histogram features: one count per
/// (label(u), label(v)) over edges u->v. Sees local structure only.
class EdgeHistogramFeaturizer final : public Featurizer {
 public:
  SparseVector featurize(const LabeledGraph& g) override;
  std::string_view name() const noexcept override { return "edge-histogram"; }

 private:
  SignatureDictionary dict_;
};

/// Shortest-path kernel (Borgwardt & Kriegel 2005 style): one count per
/// (label(u), label(v), d(u,v)) over ordered vertex pairs with a finite
/// directed hop distance (u != v). Captures long-range layering that the
/// edge histogram misses.
class ShortestPathFeaturizer final : public Featurizer {
 public:
  SparseVector featurize(const LabeledGraph& g) override;
  std::string_view name() const noexcept override { return "shortest-path"; }

 private:
  SignatureDictionary dict_;
};

}  // namespace cwgl::kernel
