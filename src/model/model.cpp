#include "model/model.hpp"

#include <cmath>
#include <string>
#include <unordered_set>

namespace cwgl::model {

namespace {

void fail(const std::string& what) { throw ModelError("model: " + what); }

bool finite(double v) noexcept { return std::isfinite(v); }

void check_profile(const ClusterProfile& p, std::size_t cluster,
                   std::size_t rep_count) {
  const std::string where = "cluster " + std::to_string(cluster) + ": ";
  for (double v : {p.population_fraction, p.mean_size, p.median_size,
                   p.mean_critical_path, p.median_critical_path, p.mean_width,
                   p.median_width, p.chain_fraction, p.short_job_fraction}) {
    if (!finite(v) || v < 0.0) fail(where + "profile statistic out of range");
  }
  if (p.population_fraction > 1.0 || p.chain_fraction > 1.0 ||
      p.short_job_fraction > 1.0) {
    fail(where + "profile fraction exceeds 1");
  }
  if (rep_count > 0 && p.medoid >= rep_count) {
    fail(where + "medoid index out of range");
  }
}

}  // namespace

std::size_t FittedModel::training_jobs() const noexcept {
  std::size_t total = 0;
  for (const auto& cluster : representatives) total += cluster.size();
  return total;
}

std::uint64_t FittedModel::training_weight() const noexcept {
  std::uint64_t total = 0;
  for (const auto& cluster : representatives) {
    for (const Representative& rep : cluster) total += rep.count;
  }
  return total;
}

void FittedModel::validate() const {
  // Kernel configuration.
  if (wl.iterations < 0 || wl.iterations > kMaxWlIterations) {
    fail("wl.iterations out of range [0, " + std::to_string(kMaxWlIterations) +
         "]");
  }
  if (!wl.iteration_weights.empty()) {
    if (wl.iteration_weights.size() !=
        static_cast<std::size_t>(wl.iterations) + 1) {
      fail("iteration_weights arity does not match iterations");
    }
    for (double w : wl.iteration_weights) {
      if (!finite(w) || w < 0.0) fail("iteration_weights entry out of range");
    }
  }

  // Frozen dictionary: dense ids are implicit (index == id); signatures must
  // be distinct and non-empty or two features would alias.
  if (dictionary.empty()) fail("empty signature dictionary");
  {
    std::unordered_set<std::string_view> seen;
    seen.reserve(dictionary.size());
    for (const std::string& signature : dictionary) {
      if (signature.empty()) fail("empty signature in dictionary");
      if (!seen.insert(signature).second) fail("duplicate signature in dictionary");
    }
  }

  // Cluster structure.
  if (profiles.empty()) fail("no clusters");
  if (profiles.size() > 4096) fail("implausible cluster count");
  if (representatives.size() != profiles.size()) {
    fail("profiles/representatives cluster count mismatch");
  }
  const std::size_t total_reps = training_jobs();
  if (total_reps == 0) fail("no representatives in any cluster");
  // Training indices address the original fit-time job sequence, which has
  // training_weight() rows (== total_reps on a direct fit where every job is
  // its own representative).
  const std::uint64_t total_jobs = training_weight();

  std::unordered_set<std::uint64_t> train_indices;
  train_indices.reserve(total_reps);
  for (std::size_t c = 0; c < profiles.size(); ++c) {
    check_profile(profiles[c], c, representatives[c].size());
    std::uint64_t cluster_weight = 0;
    for (const Representative& rep : representatives[c]) {
      const std::string where = "representative '" + rep.job_name + "': ";
      if (rep.job_name.empty()) fail("representative with empty job name");
      if (rep.count == 0) fail(where + "zero multiplicity count");
      cluster_weight += rep.count;
      if (rep.training_index >= total_jobs || !train_indices.insert(rep.training_index).second) {
        fail(where + "training index out of range or duplicated");
      }
      if (!finite(rep.self_norm) || rep.self_norm < 0.0) {
        fail(where + "non-finite or negative self norm");
      }
      int prev_id = -1;
      double norm_sq = 0.0;
      for (const auto& [id, value] : rep.features.items) {
        if (id <= prev_id) fail(where + "feature ids not strictly ascending");
        if (id >= oov_id()) fail(where + "feature id outside the frozen dictionary");
        if (!finite(value) || value < 0.0) fail(where + "feature value out of range");
        norm_sq += value * value;
        prev_id = id;
      }
      // The stored norm exists to skip this sqrt at serve time; a mismatch
      // means the sections came from different fits (or corruption slipped
      // past the CRCs). Tolerance covers cross-platform FP contraction only.
      const double norm = std::sqrt(norm_sq);
      if (std::abs(norm - rep.self_norm) > 1e-9 * std::max(1.0, norm)) {
        fail(where + "self norm inconsistent with feature vector");
      }
    }
    // The profile's population is the source of truth for group shares;
    // representative counts must account for every one of those jobs.
    if (cluster_weight != profiles[c].population) {
      fail("cluster " + std::to_string(c) +
           ": representative counts do not sum to population");
    }
  }
}

}  // namespace cwgl::model
