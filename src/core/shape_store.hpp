#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/job_dag.hpp"
#include "graph/patterns.hpp"
#include "util/node_pool.hpp"

namespace cwgl::core {

class ShapeStore;

/// Immutable snapshot of an intern table: one row per distinct shape, in
/// first-seen (trace) order, with dense ids `0..size()-1`.
///
/// The snapshot order is deterministic regardless of how many threads fed
/// the store: rows sort by the sequence number of the earliest job of each
/// shape, and the exemplar IS that earliest job. Pooled and serial ingest
/// of the same trace therefore freeze to identical tables.
struct ShapeTable {
  struct ShapeInfo {
    std::uint64_t shape_key = 0;    ///< full 64-bit canonical hash
    std::uint64_t count = 0;        ///< jobs collapsed into this shape
    std::uint64_t first_seq = 0;    ///< trace sequence of the exemplar
    int size = 0;                   ///< tasks per job of this shape
    int critical_path = 0;
    int width = 0;
    graph::ShapePattern pattern = graph::ShapePattern::Combination;
  };

  std::vector<JobDag> exemplars;    ///< parallel to `shapes`
  std::vector<ShapeInfo> shapes;
  std::uint64_t total_jobs = 0;     ///< sum of all counts

  std::size_t size() const { return shapes.size(); }
  bool empty() const { return shapes.empty(); }

  /// Per-shape multiplicities as a dense vector (parallel to `shapes`).
  std::vector<std::uint64_t> counts() const;

  /// Multiplicities as doubles — the weight vector the count-weighted
  /// clustering stages consume.
  std::vector<double> weights() const;
};

/// Sharded concurrent intern table for job-DAG shapes.
///
/// Every DAG is keyed by `graph::canonical_hash` over its raw topology +
/// task-type labels. The WL hash is isomorphism-invariant but not perfect,
/// so equal keys fall back to an exact `graph::are_isomorphic` check; keys
/// that hash equal but are NOT isomorphic chain off the same bucket as
/// separate shapes (handled, counted, and test-forced via
/// `Options::hash_bits`). Interning keys on the RAW shape — not the
/// conflated one — so every downstream stage (raw WL featurization,
/// conflation stats, census) can be reproduced exactly from exemplars ×
/// multiplicity; the conflated view is derived per exemplar on demand,
/// which is equivalent because conflation is a deterministic function of
/// topology + labels.
///
/// Thread safety: `intern` may be called concurrently; each key maps to one
/// of `Options::shards` independently locked shards. The exemplar of a
/// shape is the minimum-sequence job ever interned for it (replaced under
/// the shard lock), so arrival-order races cannot change the frozen table.
class ShapeStore {
 public:
  struct Options {
    /// Shard count (rounded up to a power of two, min 1). More shards =
    /// less lock contention under pooled ingest.
    std::size_t shards = 16;
    /// Number of high bits of the canonical hash kept in the intern key.
    /// 64 (default) = full hash. Tests set this low to force distinct
    /// shapes onto the same key, exercising the isomorphism-fallback
    /// collision chain.
    int hash_bits = 64;
    /// Above this vertex count the exact isomorphism check (exponential
    /// worst case; `graph::are_isomorphic` refuses large inputs) is
    /// replaced by a structural fingerprint comparison + trust in the
    /// 64-bit WL hash.
    int max_isomorphism_vertices = 32;
  };

  /// One interned shape. Nodes live in a per-shard arena: addresses are
  /// stable for the store's lifetime, so callers may hold `const Node*`
  /// handles across calls. All fields except `count`, `first_seq`, and
  /// `exemplar` are immutable after construction; the mutable ones are
  /// only touched under the owning shard's lock, so read them via
  /// `freeze_with_ids()`/`stats()` rather than directly during concurrent
  /// interning. `freeze_with_ids()` moves `exemplar` out.
  struct Node {
    std::uint64_t shape_key = 0;   ///< full canonical hash
    std::uint64_t intern_key = 0;  ///< masked key used for bucketing
    JobDag exemplar;               ///< earliest-sequence job of this class
    std::vector<int> labels;       ///< exemplar's task-type labels
    std::uint64_t first_seq = 0;
    std::uint64_t count = 0;
    int size = 0;
    int critical_path = 0;
    int width = 0;
    graph::ShapePattern pattern = graph::ShapePattern::Combination;
    Node* next_collision = nullptr;  ///< same intern_key, different shape
  };

  /// Counters accumulated across all shards.
  struct Stats {
    std::uint64_t total_jobs = 0;        ///< intern() calls that returned
    std::uint64_t distinct_shapes = 0;   ///< live nodes
    std::uint64_t hits = 0;              ///< matched an existing shape
    std::uint64_t misses = 0;            ///< created a new shape
    /// Exact / fingerprint checks run, plus one per repeat: task-name
    /// identity is the exact check that matched it.
    std::uint64_t isomorphism_probes = 0;
    std::uint64_t hash_collisions = 0;   ///< equal key, non-isomorphic shape
    /// Jobs counted through add_repeats; also in total_jobs and hits.
    std::uint64_t repeats = 0;

    /// distinct/total: the paper's shape-redundancy headline (tiny for
    /// real traces).
    double distinct_ratio() const {
      return total_jobs == 0
                 ? 0.0
                 : static_cast<double>(distinct_shapes) /
                       static_cast<double>(total_jobs);
    }
  };

  ShapeStore();
  explicit ShapeStore(Options options);
  ShapeStore(const ShapeStore&) = delete;
  ShapeStore& operator=(const ShapeStore&) = delete;
  ~ShapeStore();

  /// Interns one job. `seq` is the job's position in the trace (any total
  /// order works; pooled ingest passes the reader-assigned sequence so the
  /// frozen table is arrival-order independent). Returns a stable handle
  /// to the job's shape. Throws util::Error once the store is frozen.
  /// Failpoint: `shape.intern`.
  const Node* intern(JobDag&& job, std::uint64_t seq);

  /// Convenience: interns a copy of `job`.
  const Node* intern(const JobDag& job, std::uint64_t seq) {
    return intern(JobDag(job), seq);
  }

  /// Counts `repeats` more jobs of `node`'s shape, none of them earlier in
  /// the trace than the node's exemplar: jobs whose task names equal those
  /// of a job interned as `node` (stream_shape_jobs' memo). Each adds to
  /// the node's count and to `total_jobs`, `hits`, `isomorphism_probes` and
  /// `repeats`. Throws util::Error once the store is frozen.
  void add_repeats(const Node* node, std::uint64_t repeats);

  /// Aggregated counters (takes every shard lock; cheap, O(shards)).
  Stats stats() const;

  /// The frozen table plus the dense first-seen-order id of every node
  /// handle `intern` returned.
  struct FrozenView {
    ShapeTable table;
    std::unordered_map<const Node*, std::uint32_t> id_of;
  };

  /// Hands the table over in deterministic first-seen order: each shape's
  /// exemplar is moved into it, not copied. Also publishes the store's
  /// counters to the global metrics registry (`intern.*`). Afterwards the
  /// store still answers `stats()`, and its handles still name their
  /// shapes (every Node field but `exemplar`), but it is frozen: `intern`
  /// and a second freeze throw util::Error.
  FrozenView freeze_with_ids();

 private:
  struct Shard;

  Shard& shard_of(std::uint64_t key) const;
  const Node* find_or_insert(Shard& shard, JobDag&& job,
                             std::vector<int>&& labels, std::uint64_t full_hash,
                             std::uint64_t key, std::uint64_t seq);
  bool same_shape(const Node& node, const JobDag& job,
                  std::span<const int> labels, std::uint64_t full_hash,
                  std::uint64_t& probes) const;
  std::vector<Node*> nodes_in_first_seen_order();

  Options options_;
  std::uint64_t key_mask_ = ~0ULL;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set by freeze_with_ids, whose exemplars are gone from the nodes.
  std::atomic<bool> frozen_{false};
};

}  // namespace cwgl::core
