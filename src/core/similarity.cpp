#include "core/similarity.hpp"

#include <limits>

#include "kernel/gram.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace cwgl::core {

FittedFeatures featurize_jobs(std::span<const JobDag> jobs,
                              const SimilarityOptions& options) {
  obs::Span span("kernel.featurize");
  span.arg("graphs", jobs.size());
  kernel::WlSubtreeFeaturizer featurizer(options.wl);
  FittedFeatures out;
  out.vectors.reserve(jobs.size());
  for (const JobDag& job : jobs) {
    kernel::LabeledGraph g;
    g.graph = job.dag;
    if (options.use_type_labels) g.labels = job.type_labels();
    out.vectors.push_back(featurizer.featurize(g));
  }
  out.dictionary = featurizer.signatures();
  return out;
}

SimilarityAnalysis SimilarityAnalysis::compute(std::span<const JobDag> jobs,
                                               const SimilarityOptions& options,
                                               util::ThreadPool* pool,
                                               FittedFeatures* fitted) {
  FittedFeatures local;
  FittedFeatures& features = fitted != nullptr ? *fitted : local;
  features = featurize_jobs(jobs, options);
  kernel::GramOptions gram_options;
  gram_options.normalize = options.normalize;
  SimilarityAnalysis out;
  out.gram = kernel::gram_from_features(features.vectors, gram_options, pool);
  out.job_names.reserve(jobs.size());
  for (const JobDag& job : jobs) out.job_names.push_back(job.job_name);
  return out;
}

SimilarityAnalysis::Stats SimilarityAnalysis::stats(std::span<const JobDag> jobs,
                                                    int small_threshold) const {
  if (jobs.size() != gram.rows()) {
    throw util::InvalidArgument("SimilarityAnalysis::stats: jobs/gram size mismatch");
  }
  Stats s;
  s.small_threshold = small_threshold;
  s.min_offdiag = std::numeric_limits<double>::max();
  s.max_offdiag = -std::numeric_limits<double>::max();
  double sum = 0.0, small_sum = 0.0, large_sum = 0.0;
  std::size_t pairs = 0, small_pairs = 0, large_pairs = 0;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = i + 1; j < gram.cols(); ++j) {
      const double k = gram(i, j);
      sum += k;
      ++pairs;
      s.min_offdiag = std::min(s.min_offdiag, k);
      s.max_offdiag = std::max(s.max_offdiag, k);
      const bool small_i = jobs[i].size() <= small_threshold;
      const bool small_j = jobs[j].size() <= small_threshold;
      if (small_i && small_j) {
        small_sum += k;
        ++small_pairs;
      } else if (!small_i && !small_j) {
        large_sum += k;
        ++large_pairs;
      }
    }
  }
  if (pairs == 0) {
    s.min_offdiag = s.max_offdiag = 0.0;
    return s;
  }
  s.mean_offdiag = sum / static_cast<double>(pairs);
  s.small_pair_mean = small_pairs ? small_sum / static_cast<double>(small_pairs) : 0.0;
  s.large_pair_mean = large_pairs ? large_sum / static_cast<double>(large_pairs) : 0.0;
  return s;
}

}  // namespace cwgl::core
