#include "core/shape_store.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/canonical.hpp"
#include "graph/isomorphism.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace cwgl::core {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  if (n <= 1) return 1;
  return std::bit_ceil(n);
}

}  // namespace

struct ShapeStore::Shard {
  mutable std::mutex mutex;
  std::unordered_map<std::uint64_t, Node*> buckets;
  util::NodePool<Node> pool;
  // Counters, guarded by `mutex` (interning already holds it; no atomics
  // needed).
  std::uint64_t total_jobs = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t isomorphism_probes = 0;
  std::uint64_t hash_collisions = 0;
  std::uint64_t repeats = 0;
};

ShapeStore::ShapeStore() : ShapeStore(Options{}) {}

ShapeStore::ShapeStore(Options options) : options_(options) {
  const int bits = std::clamp(options_.hash_bits, 1, 64);
  options_.hash_bits = bits;
  key_mask_ = bits == 64 ? ~0ULL : ((1ULL << bits) - 1);
  const std::size_t shard_count = round_up_pow2(options_.shards);
  options_.shards = shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShapeStore::~ShapeStore() = default;

const ShapeStore::Node* ShapeStore::intern(JobDag&& job, std::uint64_t seq) {
  CWGL_FAILPOINT("shape.intern");
  if (frozen_.load(std::memory_order_relaxed)) {
    throw util::Error("ShapeStore: intern after freeze");
  }
  std::vector<int> labels = job.type_labels();
  const std::uint64_t full_hash = graph::canonical_hash(job.dag, labels);
  const std::uint64_t key = full_hash & key_mask_;
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return find_or_insert(shard, std::move(job), std::move(labels), full_hash,
                        key, seq);
}

ShapeStore::Shard& ShapeStore::shard_of(std::uint64_t key) const {
  // Mix the key before picking a shard so that low-entropy masked keys
  // (tests with hash_bits ~ 2) still spread; the mix must be a pure
  // function of the key so every thread agrees on the owning shard.
  const std::uint64_t mixed = key * 0x9e3779b97f4a7c15ULL;
  return *shards_[(mixed >> 32) & (options_.shards - 1)];
}

void ShapeStore::add_repeats(const Node* node, std::uint64_t repeats) {
  if (frozen_.load(std::memory_order_relaxed)) {
    throw util::Error("ShapeStore: add_repeats after freeze");
  }
  Shard& shard = shard_of(node->intern_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // The node is this store's, so the const is only the handle's.
  const_cast<Node*>(node)->count += repeats;
  shard.total_jobs += repeats;
  shard.hits += repeats;
  shard.isomorphism_probes += repeats;
  shard.repeats += repeats;
}

const ShapeStore::Node* ShapeStore::find_or_insert(Shard& shard, JobDag&& job,
                                                   std::vector<int>&& labels,
                                                   std::uint64_t full_hash,
                                                   std::uint64_t key,
                                                   std::uint64_t seq) {
  ++shard.total_jobs;
  auto [it, inserted] = shard.buckets.try_emplace(key, nullptr);
  if (!inserted) {
    for (Node* node = it->second; node != nullptr;
         node = node->next_collision) {
      if (same_shape(*node, job, labels, full_hash,
                     shard.isomorphism_probes)) {
        ++node->count;
        ++shard.hits;
        if (seq < node->first_seq) {
          // Keep the earliest job as exemplar so the frozen table does not
          // depend on pooled-worker arrival order. The shape-invariant
          // fields (size/cp/width/pattern/hashes) are unchanged by
          // construction — the jobs are isomorphic.
          node->first_seq = seq;
          node->exemplar = std::move(job);
          node->labels = std::move(labels);
        }
        return node;
      }
    }
    // Same intern key, no isomorphic match: a genuine (or mask-forced)
    // hash collision. The new shape chains off the same bucket.
    ++shard.hash_collisions;
  }
  Node* node = shard.pool.create();
  node->shape_key = full_hash;
  node->intern_key = key;
  node->first_seq = seq;
  node->count = 1;
  node->size = job.size();
  node->critical_path = graph::critical_path_length(job.dag);
  node->width = graph::max_width(job.dag);
  node->pattern = graph::classify_shape(job.dag);
  node->labels = std::move(labels);
  node->exemplar = std::move(job);
  node->next_collision = std::exchange(it->second, node);
  ++shard.misses;
  return node;
}

bool ShapeStore::same_shape(const Node& node, const JobDag& job,
                            std::span<const int> labels,
                            std::uint64_t full_hash,
                            std::uint64_t& probes) const {
  if (node.size != job.size() ||
      node.exemplar.dag.num_edges() != job.dag.num_edges()) {
    return false;
  }
  if (job.size() <= options_.max_isomorphism_vertices) {
    ++probes;
    return graph::are_isomorphic(node.exemplar.dag, node.labels, job.dag,
                                 labels);
  }
  // Too large for the exact check: require full 64-bit hash equality plus
  // a label-multiset fingerprint and trust the WL hash beyond that.
  if (node.shape_key != full_hash) return false;
  ++probes;
  std::vector<int> a(node.labels.begin(), node.labels.end());
  std::vector<int> b(labels.begin(), labels.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

ShapeStore::Stats ShapeStore::stats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.total_jobs += shard->total_jobs;
    stats.distinct_shapes += shard->pool.size();
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.isomorphism_probes += shard->isomorphism_probes;
    stats.hash_collisions += shard->hash_collisions;
    stats.repeats += shard->repeats;
  }
  return stats;
}

std::vector<ShapeStore::Node*> ShapeStore::nodes_in_first_seen_order() {
  std::vector<Node*> nodes;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, head] : shard->buckets) {
      for (Node* node = head; node != nullptr; node = node->next_collision) {
        nodes.push_back(node);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const Node* a, const Node* b) {
              return a->first_seq < b->first_seq;
            });
  return nodes;
}

ShapeStore::FrozenView ShapeStore::freeze_with_ids() {
  if (frozen_.exchange(true)) {
    throw util::Error("ShapeStore: already frozen");
  }
  obs::Span span("intern.freeze");
  FrozenView view;
  const std::vector<Node*> nodes = nodes_in_first_seen_order();
  view.table.exemplars.reserve(nodes.size());
  view.table.shapes.reserve(nodes.size());
  view.id_of.reserve(nodes.size());
  for (Node* node : nodes) {
    view.id_of.emplace(node, static_cast<std::uint32_t>(view.table.size()));
    ShapeTable::ShapeInfo info;
    info.shape_key = node->shape_key;
    info.count = node->count;
    info.first_seq = node->first_seq;
    info.size = node->size;
    info.critical_path = node->critical_path;
    info.width = node->width;
    info.pattern = node->pattern;
    view.table.total_jobs += node->count;
    view.table.shapes.push_back(info);
    view.table.exemplars.push_back(std::move(node->exemplar));
  }
  span.arg("shapes", static_cast<std::uint64_t>(view.table.size()));
  const Stats stats = this->stats();
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("intern.jobs").add(stats.total_jobs);
  registry.counter("intern.hits").add(stats.hits);
  registry.counter("intern.misses").add(stats.misses);
  registry.counter("intern.isomorphism_probes").add(stats.isomorphism_probes);
  registry.counter("intern.hash_collisions").add(stats.hash_collisions);
  registry.counter("intern.repeats").add(stats.repeats);
  return view;
}

std::vector<std::uint64_t> ShapeTable::counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(shapes.size());
  for (const ShapeInfo& info : shapes) counts.push_back(info.count);
  return counts;
}

std::vector<double> ShapeTable::weights() const {
  std::vector<double> weights;
  weights.reserve(shapes.size());
  for (const ShapeInfo& info : shapes) {
    weights.push_back(static_cast<double>(info.count));
  }
  return weights;
}

}  // namespace cwgl::core
