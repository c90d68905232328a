#include "cli/predict.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace cwgl::cli {

namespace {

void append_int(std::string& out, std::size_t value) {
  const auto v = static_cast<std::uint32_t>(value);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Writes into `key` exactly what Classifier::classify reads of `job`: the
/// vertex count, each vertex's task type, and each vertex's successor list
/// behind its length. Conflation and the WL features are functions of
/// these alone, so two jobs with equal keys get the same prediction.
void memo_key(const core::JobDag& job, std::string& key) {
  key.clear();
  const int n = job.size();
  append_int(key, static_cast<std::size_t>(n));
  for (const core::TaskMeta& task : job.tasks) key += task.type;
  for (int v = 0; v < n; ++v) {
    const auto successors = job.dag.successors(v);
    append_int(key, successors.size());
    for (const int s : successors) append_int(key, static_cast<std::size_t>(s));
  }
}

}  // namespace

/// Rendered bytes after the job name, by memo key. Split into shards, each
/// behind its own mutex, so the workers seldom wait on one another. Entries
/// are never changed or erased, and a node-based map keeps an entry's
/// address through rehashing, so a reader keeps using the bytes after it
/// lets go of the lock.
class PredictionRenderer::Memo {
 public:
  /// The bytes stored under `key`, or nullptr.
  const std::string* find(std::string_view key) {
    Shard& shard = shard_of(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(key);
    return it == shard.entries.end() ? nullptr : &it->second;
  }

  /// Stores `tail` under `key` unless a racing worker stored it first; both
  /// rendered the same structure, so they hold the same bytes.
  void insert(std::string_view key, std::string_view tail) {
    Shard& shard = shard_of(key);
    std::lock_guard lock(shard.mutex);
    shard.entries.try_emplace(std::string(key), tail);
  }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::string, std::string, Hash, std::equal_to<>>
        entries;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_of(std::string_view key) {
    // The top bits: the map's buckets use the low ones.
    return shards_[(Hash{}(key) >> 56) % kShards];
  }

  std::array<Shard, kShards> shards_;
};

PredictionRenderer::PredictionRenderer(const serve::Classifier& classifier,
                                       bool json)
    : classifier_(&classifier), json_(json), memo_(std::make_unique<Memo>()),
      hits_(&obs::MetricsRegistry::global().counter("predict.memo.hits")) {}

PredictionRenderer::PredictionRenderer(PredictionRenderer&&) noexcept =
    default;
PredictionRenderer::~PredictionRenderer() = default;

std::string PredictionRenderer::operator()(std::size_t /*seq*/,
                                           core::JobDag&& job) const {
  // Each thread keeps its key and render buffers' capacity from job to
  // job, and returns an exact-size copy of the render, so the results held
  // until the stream ends cost only their bytes.
  thread_local std::string key;
  thread_local std::string text;
  memo_key(job, key);
  text.clear();
  std::optional<util::JsonWriter> j;
  if (json_) {
    j.emplace(text);
    j->begin_object();
    j->field("job", job.job_name);
  } else {
    text += util::pad_right(job.job_name, 14);
  }
  if (const std::string* tail = memo_->find(key)) {
    hits_->add();
    text += *tail;
    return std::string(text);
  }
  const std::size_t name_end = text.size();
  const serve::Prediction p = classifier_->classify(job);
  const std::string_view cluster(&p.cluster_letter, 1);
  if (json_) {
    j->field("tasks", static_cast<std::size_t>(job.size()));
    j->field("cluster", cluster);
    j->field("similarity", p.similarity);
    j->field("nearest", p.nearest_job);
    j->field("oov_hits", p.oov_hits);
    j->key("predicted");
    j->begin_object();
    j->field("critical_path", p.predicted_critical_path);
    j->field("width", p.predicted_width);
    j->end_object();
    j->end_object();
  } else {
    text += util::pad_left(std::to_string(job.size()), 6);
    text += util::pad_left(cluster, 6);
    text += util::pad_left(util::format_double(p.similarity, 4), 12);
    text += util::pad_left(std::to_string(p.oov_hits), 5);
    text += "  ";
    text += p.nearest_job;
    text += " (";
    text += util::format_double(p.predicted_critical_path, 1);
    text += ", ";
    text += util::format_double(p.predicted_width, 1);
    text += ")\n";
  }
  memo_->insert(key, std::string_view(text).substr(name_end));
  return std::string(text);
}

void write_predictions(std::ostream& out, std::span<const std::string> jobs,
                       const std::string& model_path, std::size_t clusters,
                       bool json, const std::string& metrics_json) {
  if (json) {
    util::JsonWriter j(out);
    j.begin_object();
    j.field("schema", "cwgl-predict-v1");
    j.field("model", model_path);
    j.field("clusters", clusters);
    j.key("jobs");
    j.begin_array();
    for (const std::string& job : jobs) j.raw(job);
    j.end_array();
    if (!metrics_json.empty()) {
      j.key("metrics");
      j.raw(metrics_json);
    }
    j.end_object();
    out << "\n";
    return;
  }
  out << "classified " << jobs.size() << " DAG jobs against " << model_path
      << " (" << clusters << " clusters)\n";
  out << util::pad_right("job", 14) << util::pad_left("tasks", 6)
      << util::pad_left("group", 6) << util::pad_left("similarity", 12)
      << util::pad_left("oov", 5) << "  nearest / forecast (cp, width)\n";
  for (const std::string& job : jobs) out << job;
}

}  // namespace cwgl::cli
