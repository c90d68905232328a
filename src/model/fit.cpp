#include "model/fit.hpp"

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace cwgl::model {

namespace {

ClusterProfile make_profile(const core::ClusterGroupStats& g) {
  ClusterProfile p;
  p.population = g.population;
  p.population_fraction = g.population_fraction;
  p.mean_size = g.size.mean;
  p.median_size = g.size.median;
  p.mean_critical_path = g.critical_path.mean;
  p.median_critical_path = g.critical_path.median;
  p.mean_width = g.parallelism.mean;
  p.median_width = g.parallelism.median;
  p.chain_fraction = g.chain_fraction;
  p.short_job_fraction = g.short_job_fraction;
  return p;
}

}  // namespace

FittedModel build_model(const core::PipelineResult& result,
                        core::FittedFeatures fitted,
                        const core::PipelineConfig& config) {
  const auto& clustering = result.clustering;
  const auto& names = result.similarity.job_names;
  const std::size_t n = fitted.vectors.size();
  if (n == 0) throw ModelError("model: cannot fit on an empty analysis set");

  FittedModel m;
  m.wl = config.similarity.wl;
  m.use_type_labels = config.similarity.use_type_labels;
  m.normalize = config.similarity.normalize;
  m.conflated = config.analyze_conflated;
  m.dictionary = std::move(fitted.dictionary);

  m.profiles.reserve(clustering.groups.size());
  for (const core::ClusterGroupStats& g : clustering.groups) {
    m.profiles.push_back(make_profile(g));
  }
  m.representatives.resize(m.profiles.size());

  // One representative per analysis-set item: every job on a direct run,
  // every distinct shape on an interned one, carrying its multiplicity. An
  // item's training index is its first job (an interned exemplar is a
  // literal copy of it), so the group medoids, which are job indices,
  // resolve below either way.
  const core::InternedAnalysis* interned =
      result.interned.has_value() ? &*result.interned : nullptr;
  const std::size_t jobs = clustering.labels.size();
  if (names.size() != jobs ||
      n != (interned != nullptr ? interned->table.size() : jobs) ||
      (interned != nullptr && interned->shape_of.size() != jobs)) {
    throw ModelError(
        "model: fitted features, clustering labels, and job names disagree "
        "on the analysis-set size — results from different runs?");
  }
  constexpr auto kUnseen = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> first_job(n, kUnseen);
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::size_t t = interned != nullptr ? interned->shape_of[i] : i;
    if (t >= n) {
      throw ModelError("model: shape id out of range in interned result");
    }
    if (first_job[t] == kUnseen) first_job[t] = i;
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (first_job[t] == kUnseen) {
      throw ModelError("model: no job of shape " + std::to_string(t) +
                       " in interned result");
    }
    const int group = clustering.labels[first_job[t]];
    if (group < 0 || static_cast<std::size_t>(group) >= m.profiles.size()) {
      throw ModelError("model: clustering label out of range for job '" +
                       names[first_job[t]] + "'");
    }
    Representative rep;
    rep.job_name = names[first_job[t]];
    rep.training_index = first_job[t];
    if (interned != nullptr) rep.count = interned->table.shapes[t].count;
    rep.features = std::move(fitted.vectors[t]);
    rep.self_norm = rep.features.norm();
    m.representatives[static_cast<std::size_t>(group)].push_back(
        std::move(rep));
  }

  // The group medoid is a global analysis-set index; serving wants it as a
  // position inside the cluster's own representative list.
  for (std::size_t c = 0; c < clustering.groups.size(); ++c) {
    const std::size_t medoid = clustering.groups[c].medoid;
    const auto& reps = m.representatives[c];
    for (std::size_t r = 0; r < reps.size(); ++r) {
      if (reps[r].training_index == medoid) {
        m.profiles[c].medoid = r;
        break;
      }
    }
  }

  m.validate();
  return m;
}

FittedModel build_model_full(const core::FullTraceResult& result,
                             core::FittedFeatures fitted,
                             const core::PipelineConfig& config) {
  const std::size_t shapes = result.table.size();
  if (shapes == 0) {
    throw ModelError("model: cannot fit on an empty full-trace result");
  }
  if (fitted.vectors.size() != shapes ||
      result.shape_labels.size() != shapes) {
    throw ModelError(
        "model: fitted features, shape labels, and the shape table disagree "
        "on the distinct-shape count — results from different runs?");
  }

  FittedModel m;
  m.wl = config.similarity.wl;
  m.use_type_labels = config.similarity.use_type_labels;
  m.normalize = config.similarity.normalize;
  m.conflated = config.analyze_conflated;
  m.dictionary = std::move(fitted.dictionary);

  m.profiles.reserve(result.groups.size());
  for (const core::ClusterGroupStats& g : result.groups) {
    m.profiles.push_back(make_profile(g));
  }
  m.representatives.resize(m.profiles.size());

  for (std::size_t t = 0; t < shapes; ++t) {
    const int group = result.shape_labels[t];
    if (group < 0 || static_cast<std::size_t>(group) >= m.profiles.size()) {
      throw ModelError("model: shape label out of range for shape " +
                       std::to_string(t));
    }
    Representative rep;
    rep.job_name = result.table.exemplars[t].job_name;
    // Training indices address the fit-time sequence; on a full-trace fit
    // that sequence is the shape table itself, so the shape id works (dense,
    // unique, < training_weight()).
    rep.training_index = t;
    rep.count = result.table.shapes[t].count;
    rep.features = std::move(fitted.vectors[t]);
    rep.self_norm = rep.features.norm();
    m.representatives[static_cast<std::size_t>(group)].push_back(
        std::move(rep));
  }

  // Full-trace group medoids are shape ids already — remap each to its
  // position inside the cluster's representative list.
  for (std::size_t c = 0; c < result.groups.size(); ++c) {
    const std::size_t medoid = result.groups[c].medoid;
    const auto& reps = m.representatives[c];
    for (std::size_t r = 0; r < reps.size(); ++r) {
      if (reps[r].training_index == medoid) {
        m.profiles[c].medoid = r;
        break;
      }
    }
  }

  m.validate();
  return m;
}

}  // namespace cwgl::model
