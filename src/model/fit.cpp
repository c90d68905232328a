#include "model/fit.hpp"

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

  // One representative per job, in sample order, carrying its shape's
  // vector: same-shape jobs have bitwise-identical WL vectors, so this is
  // the per-job snapshot exactly. The group medoids are job indices.
  const std::vector<std::uint32_t>& shape_of = result.interned.shape_of;
  const std::size_t jobs = clustering.labels.size();
  if (names.size() != jobs || shape_of.size() != jobs ||
      n != result.interned.table.size()) {
    throw ModelError(
        "model: fitted features, clustering labels, and job names disagree "
        "on the analysis-set size — results from different runs?");
  }
  for (std::size_t i = 0; i < jobs; ++i) {
    const int group = clustering.labels[i];
    if (group < 0 || static_cast<std::size_t>(group) >= m.profiles.size()) {
      throw ModelError("model: clustering label out of range for job '" +
                       names[i] + "'");
    }
    Representative rep;
    rep.job_name = names[i];
    rep.training_index = i;
    rep.features = fitted.vectors[shape_of[i]];
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
