#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <sstream>

#include "core/report_text.hpp"
#include "trace/generator.hpp"

namespace cwgl::core {
namespace {

trace::Trace make_trace(std::size_t jobs = 1500, std::uint64_t seed = 99) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_jobs = jobs;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

PipelineConfig small_pipeline() {
  PipelineConfig cfg;
  cfg.sample_size = 60;
  return cfg;
}

TEST(Pipeline, SampleRespectsSizeAndFilters) {
  const auto trace = make_trace();
  const CharacterizationPipeline pipeline(small_pipeline());
  const auto sample = pipeline.build_sample(trace);
  ASSERT_EQ(sample.size(), 60u);
  for (const auto& job : sample) {
    EXPECT_GE(job.size(), 2);
    EXPECT_LE(job.size(), 31);
  }
}

TEST(Pipeline, SampleIsDeterministic) {
  const auto trace = make_trace();
  const CharacterizationPipeline pipeline(small_pipeline());
  const auto a = pipeline.build_sample(trace);
  const auto b = pipeline.build_sample(trace);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_name, b[i].job_name);
  }
}

TEST(Pipeline, SampleSpansManySizes) {
  const auto trace = make_trace(4000);
  PipelineConfig cfg = small_pipeline();
  cfg.sample_size = 100;
  const CharacterizationPipeline pipeline(cfg);
  const auto sample = pipeline.build_sample(trace);
  std::set<int> sizes;
  for (const auto& job : sample) sizes.insert(job.size());
  // The paper's experiment set had 17 distinct sizes in 2..31.
  EXPECT_GE(sizes.size(), 12u);
}

TEST(Pipeline, NaturalSamplingFollowsPopulation) {
  const auto trace = make_trace(4000);
  PipelineConfig stratified = small_pipeline();
  stratified.sample_size = 100;
  PipelineConfig natural = stratified;
  natural.sampling = SamplingMode::Natural;
  const auto strat_sample =
      CharacterizationPipeline(stratified).build_sample(trace);
  const auto nat_sample = CharacterizationPipeline(natural).build_sample(trace);
  ASSERT_EQ(strat_sample.size(), 100u);
  ASSERT_EQ(nat_sample.size(), 100u);
  // The stratified sample guarantees one representative per size, so it
  // must carry clearly more LARGE jobs than a natural draw from the
  // bottom-heavy population (where sizes >= 10 are a few percent).
  const auto large = [](const std::vector<JobDag>& jobs) {
    std::size_t n = 0;
    for (const auto& j : jobs) n += j.size() >= 10;
    return n;
  };
  EXPECT_GT(large(strat_sample), large(nat_sample));
  // And the natural draw stays dominated by small jobs.
  std::size_t small = 0;
  for (const auto& j : nat_sample) small += j.size() <= 4;
  EXPECT_GT(small, nat_sample.size() / 2);
}

TEST(Pipeline, FullRunProducesConsistentResult) {
  const auto trace = make_trace();
  PipelineConfig cfg = small_pipeline();
  cfg.clustering.clusters = 5;
  const CharacterizationPipeline pipeline(cfg);
  const auto result = pipeline.run(trace);

  EXPECT_EQ(result.sample.size(), 60u);
  EXPECT_EQ(result.similarity.gram.rows(), 60u);
  EXPECT_EQ(result.clustering.labels.size(), 60u);
  EXPECT_EQ(result.clustering.groups.size(), 5u);
  EXPECT_EQ(result.conflation.before.total(), 60u);
  EXPECT_EQ(result.task_types.rows.size(), 60u);
  EXPECT_EQ(result.patterns.total, 60u);

  // Group populations sum to the sample and descend.
  std::size_t total = 0;
  for (std::size_t g = 0; g < result.clustering.groups.size(); ++g) {
    total += result.clustering.groups[g].population;
    if (g > 0) {
      EXPECT_LE(result.clustering.groups[g].population,
                result.clustering.groups[g - 1].population);
    }
  }
  EXPECT_EQ(total, 60u);

  // Census covers the whole trace, not the sample.
  EXPECT_EQ(result.census.total_jobs, 1500u);
}

TEST(Pipeline, MedoidIsTheEarliestJobOfItsShape) {
  // Copies of a shape are equally central, so a group's medoid is the
  // earliest sample job with the medoid's Fig. 7 row. Summing each copy's
  // similarities separately let rounding pick a later copy: at seed 5 it
  // chose job 54 for group D, whose row equals job 1's.
  const std::pair<SamplingMode, std::uint64_t> runs[] = {
      {SamplingMode::VariabilityStratified, 5},
      {SamplingMode::VariabilityStratified, 6},
      {SamplingMode::VariabilityStratified, 12},
      {SamplingMode::Natural, 4}};
  for (const auto& [sampling, seed] : runs) {
    SCOPED_TRACE(seed);
    PipelineConfig cfg;
    cfg.sampling = sampling;
    const auto result =
        CharacterizationPipeline(cfg).run(make_trace(20000, seed));
    const linalg::Matrix& gram = result.similarity.gram;
    for (const ClusterGroupStats& group : result.clustering.groups) {
      ASSERT_GT(group.population, 0u);
      const std::size_t medoid = group.medoid;
      for (std::size_t j = 0; j < medoid; ++j) {
        EXPECT_NE(result.interned.shape_of[j],
                  result.interned.shape_of[medoid])
            << "group " << group.letter() << ": job " << j
            << " has the shape of medoid " << medoid;
        bool same_row = true;
        for (std::size_t c = 0; c < gram.cols() && same_row; ++c) {
          same_row = gram(j, c) == gram(medoid, c);
        }
        EXPECT_FALSE(same_row) << "group " << group.letter() << ": job " << j
                               << " has the Fig. 7 row of medoid " << medoid;
      }
    }
  }
}

TEST(Pipeline, MoreClustersThanShapesKeepsEachShapeInOneGroup) {
  // 20 sampled jobs of 16 distinct shapes and 17 clusters asked for: the
  // count clamps to the shapes, and copies of a shape share a label.
  PipelineConfig cfg;
  cfg.sample_size = 20;
  cfg.clustering.clusters = 17;
  const auto result = CharacterizationPipeline(cfg).run(make_trace(600, 42));
  ASSERT_EQ(result.interned.table.size(), 16u);
  EXPECT_EQ(result.clustering.groups.size(), 16u);
  std::vector<int> shape_label(result.interned.table.size(), -1);
  for (std::size_t i = 0; i < result.sample.size(); ++i) {
    int& label = shape_label[result.interned.shape_of[i]];
    if (label < 0) label = result.clustering.labels[i];
    EXPECT_EQ(result.clustering.labels[i], label) << "job " << i;
  }
  for (const ClusterGroupStats& group : result.clustering.groups) {
    EXPECT_GT(group.population, 0u) << group.letter();
  }
}

TEST(Pipeline, ConflatedAnalysisUsesConflatedSizes) {
  const auto trace = make_trace();
  PipelineConfig raw_cfg = small_pipeline();
  PipelineConfig merged_cfg = small_pipeline();
  merged_cfg.analyze_conflated = true;
  const auto raw = CharacterizationPipeline(raw_cfg).run(trace);
  const auto merged = CharacterizationPipeline(merged_cfg).run(trace);
  // Same sample, same gram size; structural figures identical.
  EXPECT_EQ(raw.similarity.gram.rows(), merged.similarity.gram.rows());
  // Conflated analysis must differ somewhere in the gram (fan-ins collapse).
  EXPECT_GT(raw.similarity.gram.max_abs_diff(merged.similarity.gram), 1e-6);
}

TEST(Pipeline, StructureAfterNeverLargerThanBefore) {
  const auto trace = make_trace();
  const auto result = CharacterizationPipeline(small_pipeline()).run(trace);
  long long before_mass = 0, after_mass = 0;
  for (const auto& [size, count] : result.structure_before.size_histogram.items()) {
    before_mass += size * static_cast<long long>(count);
  }
  for (const auto& [size, count] : result.structure_after.size_histogram.items()) {
    after_mass += size * static_cast<long long>(count);
  }
  EXPECT_LE(after_mass, before_mass);
}

TEST(Pipeline, BuildAllDagJobsHonorsCriteria) {
  const auto trace = make_trace(800);
  trace::SamplingCriteria criteria;
  const auto jobs = build_all_dag_jobs(trace, criteria);
  EXPECT_GT(jobs.size(), 100u);
  for (const auto& job : jobs) EXPECT_GE(job.size(), 2);
  trace::SamplingCriteria harsher = criteria;
  harsher.min_tasks = 10;
  const auto big_only = build_all_dag_jobs(trace, harsher);
  EXPECT_LT(big_only.size(), jobs.size());
  for (const auto& job : big_only) EXPECT_GE(job.size(), 10);
}

TEST(ReportText, PrintersProduceNonEmptyOutput) {
  const auto trace = make_trace(600);
  PipelineConfig cfg = small_pipeline();
  cfg.sample_size = 30;
  const auto result = CharacterizationPipeline(cfg).run(trace);

  std::ostringstream out;
  print_trace_census(out, result.census);
  print_conflation_report(out, result.conflation);
  print_structural_report(out, result.structure_before, "Fig 4");
  print_structural_report(out, result.structure_after, "Fig 5");
  print_task_type_report(out, result.task_types);
  print_pattern_census(out, result.patterns);
  print_similarity_summary(out, result.similarity.stats(result.sample));
  print_clustering_analysis(out, result.clustering);
  const std::string text = out.str();
  EXPECT_NE(text.find("Fig 3"), std::string::npos);
  EXPECT_NE(text.find("Fig 4"), std::string::npos);
  EXPECT_NE(text.find("Group A"), std::string::npos);
  EXPECT_NE(text.find("straight-chain"), std::string::npos);
  EXPECT_GT(text.size(), 500u);
}

TEST(ReportText, ResourceReportPrinterCoversAllSections) {
  const auto trace = make_trace(600);
  PipelineConfig cfg = small_pipeline();
  cfg.sample_size = 30;
  const auto sample = CharacterizationPipeline(cfg).build_sample(trace);
  const auto report = ResourceUsageReport::compute(sample);
  std::ostringstream out;
  print_resource_report(out, report);
  const std::string text = out.str();
  EXPECT_NE(text.find("Resource usage by task type"), std::string::npos);
  EXPECT_NE(text.find("Resource usage by DAG level"), std::string::npos);
  EXPECT_NE(text.find("corr(size, work)"), std::string::npos);
  // Every DAG sample has M and R stages.
  EXPECT_NE(text.find("\n     M"), std::string::npos);
  EXPECT_NE(text.find("\n     R"), std::string::npos);
}

TEST(ReportText, SimilarityMatrixIsCsvOfRightShape) {
  const auto trace = make_trace(600);
  PipelineConfig cfg = small_pipeline();
  cfg.sample_size = 10;
  const auto result = CharacterizationPipeline(cfg).run(trace);
  std::ostringstream out;
  print_similarity_matrix(out, result.similarity);
  const std::string text = out.str();
  std::size_t lines = 0, commas = 0;
  for (char c : text) {
    lines += (c == '\n');
    commas += (c == ',');
  }
  EXPECT_EQ(lines, 10u);
  EXPECT_EQ(commas, 10u * 9u);
}

}  // namespace
}  // namespace cwgl::core
