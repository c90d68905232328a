// Golden-model regression: a tiny fitted snapshot is committed under
// tests/data/ (produced by `cwgl fit` on the bundled example trace, see the
// README quickstart). This suite pins the artifact's observable behavior —
// if the WL featurizer, the frozen-dictionary id assignment, the kernel
// normalization, or the binary format drifts incompatibly, these tests go
// red BEFORE any deployed model silently misclassifies.
//
// Regenerating after an INTENTIONAL format/pipeline change:
//   cwgl generate --out tests/data/example_trace --jobs 300 --seed 7 --no-instances
//   cwgl fit --trace tests/data/example_trace --sample 60 --clusters 4
//            --out tests/data/example_model.cwgl
// then re-pin the expected clusters below from
//   cwgl predict --model tests/data/example_model.cwgl tests/data/probe_jobs.csv

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "model/fit.hpp"
#include "model/format.hpp"
#include "model/model.hpp"
#include "serve/classifier.hpp"
#include "trace/filter.hpp"
#include "trace/io.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::model {
namespace {

constexpr const char* kDataDir = CWGL_TEST_DATA_DIR;

// Pinned from the committed artifact (see header for the regeneration
// recipe). The two probe jobs are structural opposites: a straight chain
// (M1 -> R2 -> J3) and an inverted triangle (M1, M2 -> J3).
constexpr int kExpectedClusters = 4;
constexpr std::size_t kExpectedTrainingJobs = 60;
constexpr int kExpectedChainCluster = 2;     // group C
constexpr int kExpectedTriangleCluster = 3;  // group D

FittedModel golden() {
  return load_model(std::string(kDataDir) + "/example_model.cwgl");
}

std::vector<core::JobDag> probe_jobs() {
  std::ifstream in(std::string(kDataDir) + "/probe_jobs.csv");
  EXPECT_TRUE(in.is_open());
  return core::build_all_dag_jobs(in, trace::SamplingCriteria{});
}

TEST(GoldenModelTest, ArtifactLoadsWithPinnedShape) {
  const FittedModel m = golden();
  EXPECT_EQ(m.num_clusters(), static_cast<std::size_t>(kExpectedClusters));
  EXPECT_EQ(m.training_jobs(), kExpectedTrainingJobs);
  EXPECT_FALSE(m.dictionary.empty());
  EXPECT_EQ(m.wl.iterations, 1);
}

TEST(GoldenModelTest, HeldOutProbesLandInPinnedClusters) {
  const serve::Classifier classifier(golden());
  const std::vector<core::JobDag> probes = probe_jobs();
  ASSERT_EQ(probes.size(), 2u);

  const core::JobDag& chain = probes[0].job_name == "j_chain" ? probes[0]
                                                              : probes[1];
  const core::JobDag& triangle = probes[0].job_name == "j_triangle"
                                     ? probes[0]
                                     : probes[1];
  ASSERT_EQ(chain.job_name, "j_chain");
  ASSERT_EQ(triangle.job_name, "j_triangle");

  const serve::Prediction chain_p = classifier.classify(chain);
  const serve::Prediction triangle_p = classifier.classify(triangle);

  EXPECT_EQ(chain_p.cluster, kExpectedChainCluster);
  EXPECT_EQ(triangle_p.cluster, kExpectedTriangleCluster);
  // The probes are structurally distinct enough that they must not share a
  // group under this model.
  EXPECT_NE(chain_p.cluster, triangle_p.cluster);
  EXPECT_GT(chain_p.similarity, 0.5);
  EXPECT_GT(triangle_p.similarity, 0.5);
}

TEST(GoldenModelTest, RecipeRefitIsByteIdentical) {
  // The header's `cwgl fit` recipe run through the library (pooled, like the
  // CLI) must rebuild the committed artifact byte for byte: a change to the
  // default pipeline that moves one label, statistic or feature shows here.
  const trace::Trace data =
      trace::read_trace(std::string(kDataDir) + "/example_trace");
  core::PipelineConfig cfg;
  cfg.sample_size = kExpectedTrainingJobs;
  cfg.clustering.clusters = kExpectedClusters;
  util::ThreadPool pool;
  core::FittedFeatures fitted;
  const core::PipelineResult result =
      core::CharacterizationPipeline(cfg).run(data, &pool, &fitted);
  const std::string refit =
      serialize_model(model::build_model(result, std::move(fitted), cfg));

  std::ifstream in(std::string(kDataDir) + "/example_model.cwgl",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  ASSERT_EQ(refit.size(), on_disk.size());
  const auto first_diff =
      std::mismatch(refit.begin(), refit.end(), on_disk.begin()).first;
  EXPECT_TRUE(first_diff == refit.end())
      << "first differing byte at offset " << (first_diff - refit.begin());
}

TEST(GoldenModelTest, GoldenPredictionsAreByteStable) {
  // Serializing the loaded model reproduces the on-disk bytes exactly:
  // load -> save is the identity on canonical snapshots.
  const std::string path = std::string(kDataDir) + "/example_model.cwgl";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(serialize_model(golden()), on_disk);
}

}  // namespace
}  // namespace cwgl::model
