#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "kernel/types.hpp"

namespace cwgl::kernel {

/// Configuration of the Weisfeiler–Lehman subtree kernel (Shervashidze et
/// al., JMLR 2011), adapted to directed graphs.
struct WlConfig {
  /// Number of refinement iterations h. Iteration 0 contributes the raw
  /// label histogram; each further iteration contributes one more ring of
  /// neighborhood context. The paper's graphs are shallow (critical paths
  /// 2–8), so h = 3 captures nearly all structure.
  int iterations = 3;
  /// If true (default), a vertex's refinement signature keeps in- and
  /// out-neighbor label multisets separate — a Map feeding two Reduces is
  /// then distinguished from a Join fed by two Maps. If false, neighbors
  /// are pooled as in the classic undirected kernel.
  bool directed = true;
  /// Optional per-iteration weights w_0..w_h realizing the general form of
  /// the paper's Eq. (1): k = sum_i w_i k_i(G^i, G'^i). Empty means all 1.
  /// Must have exactly `iterations + 1` non-negative entries when set
  /// (validated once, at featurizer construction). Larger early weights
  /// emphasize coarse label statistics; larger late weights emphasize deep
  /// subtree context.
  std::vector<double> iteration_weights;

  friend bool operator==(const WlConfig&, const WlConfig&) = default;
};

/// WL subtree featurizer.
///
/// featurize() returns the concatenated per-iteration compressed-label
/// histograms phi(G) of Eq. (2) in the paper; the kernel between two graphs
/// is then <phi(G), phi(G')>, and two isomorphic graphs get identical
/// vectors regardless of vertex order (signatures sort neighbor labels).
///
/// A single instance interns signatures into one shared dictionary, so the
/// whole corpus must pass through the same instance for comparable vectors.
/// featurize() interns, so it is not thread-safe; ids are dense in
/// first-seen order, which makes the dictionary a pure function of the
/// corpus and its order.
///
/// Throws util::InvalidArgument at construction when
/// `config.iteration_weights` is set but malformed (wrong arity or a
/// negative entry) — featurize() itself never re-validates.
class WlSubtreeFeaturizer final : public Featurizer {
 public:
  explicit WlSubtreeFeaturizer(WlConfig config = {});

  SparseVector featurize(const LabeledGraph& g) override;

  std::string_view name() const noexcept override { return "wl-subtree"; }

  const WlConfig& config() const noexcept { return config_; }

  /// Every signature interned so far; entry i is the one with id i. This is
  /// the fitted state the model store serializes.
  std::vector<std::string> signatures() const { return dict_.signatures(); }

 private:
  WlConfig config_;
  SignatureDictionary dict_;
};

/// Read-only WL featurization against a FROZEN signature dictionary — the
/// serving-side counterpart of WlSubtreeFeaturizer.
///
/// Training interns every signature it meets; serving must not (a model's
/// feature space is fixed at fit time), so this featurizer only ever calls
/// the dictionary's const `find()`. A signature the dictionary has never
/// seen maps to the reserved out-of-vocabulary id `oov_id` — one shared
/// bucket, so unseen structure still contributes kernel mass (two jobs that
/// are both "novel" in the same positions look alike) without ever mutating
/// the dictionary. OOV colors feed the next refinement round like any other
/// color, keeping the recursion deterministic.
///
/// The referenced dictionary must outlive this featurizer and must not be
/// mutated while featurize() runs (the serving engine guarantees both: the
/// dictionary is owned by the loaded model and nothing interns into it).
/// featurize() is const and reads the dictionary through its lock-free
/// find(), so any number of threads may call it at once.
class FrozenWlFeaturizer {
 public:
  /// `oov_id` must be outside the dictionary's dense id range; the model
  /// store uses `dictionary size` (one past the last real id). Throws
  /// util::InvalidArgument on a malformed config (same rules as
  /// WlSubtreeFeaturizer).
  FrozenWlFeaturizer(WlConfig config, const SignatureDictionary& dict,
                     int oov_id);

  /// Maps a graph into the frozen feature space. When `oov_hits` is given it
  /// receives the number of vertex-signature lookups that fell into the OOV
  /// bucket (0 for a job fully covered by the training vocabulary).
  SparseVector featurize(const LabeledGraph& g,
                         std::size_t* oov_hits = nullptr) const;

  const WlConfig& config() const noexcept { return config_; }
  int oov_id() const noexcept { return oov_id_; }

 private:
  WlConfig config_;
  const SignatureDictionary* dict_;
  int oov_id_;
};

/// Convenience: raw WL kernel value between two graphs using a fresh
/// dictionary (fine for one-off comparisons; use the featurizer + gram
/// matrix for corpora).
double wl_subtree_kernel(const LabeledGraph& a, const LabeledGraph& b,
                         WlConfig config = {});

/// Cosine-normalized convenience variant, in [0,1], 1 for isomorphic pairs.
double wl_subtree_similarity(const LabeledGraph& a, const LabeledGraph& b,
                             WlConfig config = {});

}  // namespace cwgl::kernel
