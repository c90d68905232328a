// The guarantee the sampled pipeline rests on: it interns the sample and runs
// featurize, Gram, eigensolve, k-means, silhouette and medoid once per
// DISTINCT shape, yet its result is the per-job analysis of the sample. The
// oracle here is that per-job analysis, assembled from the public stages
// (SimilarityAnalysis + ClusteringAnalysis + the figure reports) over every
// job of the sample. Labels, the Gram matrix, the Fig. 3-6 reports and the
// Fig. 9 group statistics must match bit for bit, and each group's medoid
// must be the earliest job of the oracle medoid's shape. The 20k-job cases
// are the paper configurations on which drawing the k-means++ seeds over
// shapes, rather than over jobs, moved Fig. 9 labels. scripts/check.sh
// re-runs this suite under ASan/UBSan and TSan.

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

trace::Trace make_trace(std::size_t jobs, std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = seed;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

template <typename Report>
std::string as_json(const Report& report) {
  std::ostringstream out;
  write_json(out, report);
  return out.str();
}

/// The per-job analysis of the pipeline's sample: every stage runs once per
/// job, on the Gram matrix over all of them.
struct DirectRun {
  std::vector<JobDag> sample;
  SimilarityAnalysis similarity;
  ClusteringAnalysis clustering;
  ConflationReport conflation;
  StructuralReport structure_before;
  StructuralReport structure_after;
  TaskTypeReport task_types;
  PatternCensus patterns;
};

DirectRun direct_run(const PipelineConfig& cfg, const trace::Trace& data,
                     util::ThreadPool* pool) {
  DirectRun d;
  d.sample = CharacterizationPipeline(cfg).build_sample(data);
  std::vector<JobDag> conflated;
  for (const JobDag& job : d.sample) conflated.push_back(conflate_job(job));
  const std::span<const JobDag> analysis =
      cfg.analyze_conflated ? std::span<const JobDag>(conflated) : d.sample;
  d.similarity = SimilarityAnalysis::compute(analysis, cfg.similarity, pool);
  d.clustering =
      ClusteringAnalysis::compute(d.similarity.gram, analysis, cfg.clustering);
  d.conflation = ConflationReport::compute(d.sample);
  d.structure_before = StructuralReport::compute(d.sample);
  d.structure_after = StructuralReport::compute(conflated);
  d.task_types = TaskTypeReport::compute(d.sample);
  d.patterns = PatternCensus::compute(d.sample);
  return d;
}

void expect_same_distribution(const util::Distribution& a,
                              const util::Distribution& b, const char* name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.p25, b.p25);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p75, b.p75);
  EXPECT_EQ(a.max, b.max);
}

/// Runs the pipeline and the per-job oracle on the same configuration and
/// asserts the pipeline reproduces it.
void expect_pipeline_matches_direct(const PipelineConfig& cfg,
                                    const trace::Trace& data,
                                    const std::string& which) {
  SCOPED_TRACE(which);
  util::ThreadPool pool;
  const PipelineResult result = CharacterizationPipeline(cfg).run(data, &pool);
  const DirectRun direct = direct_run(cfg, data, &pool);

  const std::size_t n = direct.sample.size();
  ASSERT_EQ(result.sample.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(result.sample[i].job_name, direct.sample[i].job_name);
  }
  const InternedAnalysis& interned = result.interned;
  ASSERT_EQ(interned.shape_of.size(), n);
  EXPECT_EQ(interned.stats.total_jobs, n);
  EXPECT_GT(interned.table.size(), 0u);
  EXPECT_LT(interned.table.size(), n) << "the sample should repeat shapes";

  // Cluster assignments: equal job for job, not merely the same partition.
  EXPECT_EQ(result.clustering.labels, direct.clustering.labels);

  // Fig. 7: the expanded shape kernel is the per-job Gram, bit for bit.
  ASSERT_EQ(result.similarity.gram.rows(), n);
  ASSERT_EQ(result.similarity.gram.cols(), n);
  std::size_t gram_mismatches = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      gram_mismatches +=
          result.similarity.gram(r, c) != direct.similarity.gram(r, c);
    }
  }
  EXPECT_EQ(gram_mismatches, 0u);
  EXPECT_EQ(result.similarity.job_names, direct.similarity.job_names);

  // Figs. 3-6 and the pattern census, byte for byte.
  EXPECT_EQ(as_json(result.conflation), as_json(direct.conflation));
  EXPECT_EQ(as_json(result.structure_before), as_json(direct.structure_before));
  EXPECT_EQ(as_json(result.structure_after), as_json(direct.structure_after));
  EXPECT_EQ(as_json(result.task_types), as_json(direct.task_types));
  EXPECT_EQ(as_json(result.patterns), as_json(direct.patterns));

  // Fig. 9: every statistic bit for bit; the medoid is the earliest job of
  // the oracle medoid's shape.
  ASSERT_EQ(result.clustering.groups.size(), direct.clustering.groups.size());
  for (std::size_t g = 0; g < direct.clustering.groups.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    const ClusterGroupStats& a = result.clustering.groups[g];
    const ClusterGroupStats& b = direct.clustering.groups[g];
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.population, b.population);
    EXPECT_EQ(a.population_fraction, b.population_fraction);
    EXPECT_EQ(a.chain_fraction, b.chain_fraction);
    EXPECT_EQ(a.short_job_fraction, b.short_job_fraction);
    expect_same_distribution(a.size, b.size, "size");
    expect_same_distribution(a.critical_path, b.critical_path,
                             "critical_path");
    expect_same_distribution(a.parallelism, b.parallelism, "parallelism");
    if (b.population == 0) continue;
    std::size_t earliest = 0;
    while (interned.shape_of[earliest] != interned.shape_of[b.medoid]) {
      ++earliest;
    }
    EXPECT_EQ(a.medoid, earliest) << "oracle medoid " << b.medoid;
  }
  EXPECT_NEAR(result.clustering.silhouette, direct.clustering.silhouette,
              1e-9);
  EXPECT_EQ(result.clustering.suggested_k, direct.clustering.suggested_k);
  ASSERT_EQ(result.clustering.eigenvalues.size(),
            direct.clustering.eigenvalues.size());
  for (std::size_t i = 0; i < direct.clustering.eigenvalues.size(); ++i) {
    EXPECT_NEAR(result.clustering.eigenvalues[i],
                direct.clustering.eigenvalues[i], 1e-8)
        << "eigenvalue " << i;
  }
}

TEST(InternDifferential, PaperMixVariabilitySample) {
  PipelineConfig cfg;
  cfg.sample_size = 60;
  cfg.clustering.clusters = 5;
  expect_pipeline_matches_direct(cfg, make_trace(1200, 42),
                                 "paper-mix / variability / k=5");
}

TEST(InternDifferential, NaturalSamplingDifferentSeedAndK) {
  PipelineConfig cfg;
  cfg.sample_size = 50;
  cfg.sampling = SamplingMode::Natural;
  cfg.clustering.clusters = 3;
  cfg.similarity.wl.iterations = 2;
  expect_pipeline_matches_direct(cfg, make_trace(900, 1234),
                                 "natural / seed 1234 / k=3 / h=2");
}

TEST(InternDifferential, ConflatedAblation) {
  PipelineConfig cfg;
  cfg.sample_size = 50;
  cfg.clustering.clusters = 4;
  cfg.analyze_conflated = true;
  expect_pipeline_matches_direct(cfg, make_trace(1000, 7),
                                 "conflated ablation / k=4");
}

/// `cwgl characterize --jobs 20000 --seed S [--natural]`: the CLI's
/// defaults, a 100-job sample and 5 clusters.
/// ctest names each case by its bytes ("# GetParam() = 16-byte object
/// <...>"), so the four bytes after `sampling` are a zeroed member rather
/// than padding, whose contents vary from build to build.
struct PaperCase {
  SamplingMode sampling;
  std::uint32_t zero;
  std::uint64_t seed;
};

class InternDifferentialPaper : public ::testing::TestWithParam<PaperCase> {};

TEST_P(InternDifferentialPaper, MatchesDirect) {
  PipelineConfig cfg;
  cfg.sampling = GetParam().sampling;
  expect_pipeline_matches_direct(cfg, make_trace(20000, GetParam().seed),
                                 "20k jobs / seed " +
                                     std::to_string(GetParam().seed));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, InternDifferentialPaper,
    ::testing::Values(PaperCase{SamplingMode::VariabilityStratified, 0, 1},
                      PaperCase{SamplingMode::VariabilityStratified, 0, 2},
                      PaperCase{SamplingMode::VariabilityStratified, 0, 5},
                      PaperCase{SamplingMode::VariabilityStratified, 0, 6},
                      PaperCase{SamplingMode::VariabilityStratified, 0, 8},
                      PaperCase{SamplingMode::VariabilityStratified, 0, 12},
                      PaperCase{SamplingMode::Natural, 0, 1},
                      PaperCase{SamplingMode::Natural, 0, 5},
                      PaperCase{SamplingMode::Natural, 0, 7}),
    [](const ::testing::TestParamInfo<PaperCase>& test) {
      return std::string(test.param.sampling == SamplingMode::Natural
                             ? "Natural"
                             : "Stratified") +
             std::to_string(test.param.seed);
    });

}  // namespace
}  // namespace cwgl::core
