#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scale.hpp"
#include "core/pipeline.hpp"
#include "model/fit.hpp"
#include "model/format.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

trace::Trace make_trace(std::size_t jobs = 4000, std::uint64_t seed = 99) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_jobs = jobs;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

TEST(FullTrace, ClustersEveryEligibleJob) {
  const auto trace = make_trace();
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto result = pipeline.run_full(trace);

  EXPECT_GT(result.total_jobs(), 1000u);
  EXPECT_EQ(result.shape_of.size(), result.total_jobs());
  ASSERT_EQ(result.shape_labels.size(), result.table.size());
  // Many jobs, few shapes: the whole point of the interned path.
  EXPECT_LT(result.table.size(), result.total_jobs() / 2);

  const int k = static_cast<int>(result.groups.size());
  EXPECT_GE(k, 2);
  for (int l : result.shape_labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, k);
  }
  const auto jobs = result.job_labels();
  EXPECT_EQ(jobs.size(), result.total_jobs());

  // Groups are relabeled by descending weighted mass: A is the largest.
  for (std::size_t g = 1; g < result.groups.size(); ++g) {
    EXPECT_GE(result.groups[g - 1].population, result.groups[g].population);
  }
  // Medoids are shape ids belonging to their own group.
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    const std::size_t medoid = result.groups[g].medoid;
    ASSERT_LT(medoid, result.table.size());
    EXPECT_EQ(result.shape_labels[medoid], static_cast<int>(g));
  }
}

TEST(FullTrace, AgreesWithExactPipelineOnSubsample) {
  const auto trace = make_trace(6000, 3);
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto result = pipeline.run_full(trace);
  ASSERT_GT(result.agreement.items, 0u) << "validation should have run";
  EXPECT_GE(result.agreement.ari, 0.8);
  EXPECT_GT(result.agreement.nmi, 0.5);
}

TEST(FullTrace, DeterministicForSeedBothMethods) {
  const auto trace = make_trace(3000, 5);
  for (const cluster::ScaleMethod method :
       {cluster::ScaleMethod::MiniBatch, cluster::ScaleMethod::Landmark}) {
    PipelineConfig cfg;
    cfg.full_method = method;
    const CharacterizationPipeline pipeline(cfg);
    const auto a = pipeline.run_full(trace);
    const auto b = pipeline.run_full(trace);
    EXPECT_EQ(a.shape_labels, b.shape_labels)
        << cluster::to_string(method);
    EXPECT_EQ(a.method, method) << cluster::to_string(method);
    EXPECT_DOUBLE_EQ(a.agreement.ari, b.agreement.ari)
        << cluster::to_string(method);
  }
}

void expect_same_distribution(const util::Distribution& a,
                              const util::Distribution& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.p25, b.p25);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p75, b.p75);
  EXPECT_EQ(a.max, b.max);
}

void expect_same_groups(const std::vector<ClusterGroupStats>& a,
                        const std::vector<ClusterGroupStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    SCOPED_TRACE("group " + std::string(1, a[g].letter()));
    EXPECT_EQ(a[g].group, b[g].group);
    EXPECT_EQ(a[g].population, b[g].population);
    EXPECT_EQ(a[g].population_fraction, b[g].population_fraction);
    expect_same_distribution(a[g].size, b[g].size);
    expect_same_distribution(a[g].critical_path, b[g].critical_path);
    expect_same_distribution(a[g].parallelism, b[g].parallelism);
    EXPECT_EQ(a[g].chain_fraction, b[g].chain_fraction);
    EXPECT_EQ(a[g].short_job_fraction, b[g].short_job_fraction);
    EXPECT_EQ(a[g].medoid, b[g].medoid);
  }
}

// Streaming the task file, serially or on a pool, reproduces the Trace
// overload: everything a snapshot is built from, and the snapshot itself
// byte for byte.
TEST(FullTrace, StreamOverloadMatchesTraceOverload) {
  const auto trace = make_trace(2000, 7);
  std::ostringstream out;
  trace::write_batch_task_csv(out, trace.tasks);
  const std::string csv = out.str();

  const PipelineConfig cfg;
  const CharacterizationPipeline pipeline(cfg);
  FittedFeatures trace_fitted;
  const auto from_trace = pipeline.run_full(trace, nullptr, &trace_fitted);
  const std::string trace_bytes = model::serialize_model(
      model::build_model_full(from_trace, trace_fitted, cfg));

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial stream" : "pooled stream");
    std::istringstream in(csv);
    FittedFeatures fitted;
    IngestStats stats;
    const auto from_stream = pipeline.run_full(in, p, &fitted, &stats);
    EXPECT_EQ(stats.stream.rows, trace.tasks.size());
    EXPECT_EQ(stats.stream.malformed, 0u);
    EXPECT_EQ(stats.stream.fragmented, 0u);
    EXPECT_EQ(stats.dags, from_trace.total_jobs());

    EXPECT_EQ(from_stream.table.size(), from_trace.table.size());
    EXPECT_EQ(from_stream.total_jobs(), from_trace.total_jobs());
    EXPECT_EQ(from_stream.table.counts(), from_trace.table.counts());
    ASSERT_EQ(from_stream.table.exemplars.size(),
              from_trace.table.exemplars.size());
    for (std::size_t t = 0; t < from_trace.table.size(); ++t) {
      EXPECT_EQ(from_stream.table.exemplars[t].job_name,
                from_trace.table.exemplars[t].job_name);
    }
    EXPECT_EQ(from_stream.shape_of, from_trace.shape_of);
    EXPECT_EQ(from_stream.shape_labels, from_trace.shape_labels);
    expect_same_groups(from_stream.groups, from_trace.groups);
    EXPECT_EQ(from_stream.method, from_trace.method);
    EXPECT_EQ(from_stream.degraded, from_trace.degraded);
    EXPECT_EQ(from_stream.inertia, from_trace.inertia);

    EXPECT_EQ(from_stream.agreement.items, from_trace.agreement.items);
    EXPECT_EQ(from_stream.agreement.clusters_a, from_trace.agreement.clusters_a);
    EXPECT_EQ(from_stream.agreement.clusters_b, from_trace.agreement.clusters_b);
    EXPECT_EQ(from_stream.agreement.ari, from_trace.agreement.ari);
    EXPECT_EQ(from_stream.agreement.nmi, from_trace.agreement.nmi);

    EXPECT_EQ(from_stream.stats.total_jobs, from_trace.stats.total_jobs);
    EXPECT_EQ(from_stream.stats.distinct_shapes,
              from_trace.stats.distinct_shapes);
    EXPECT_EQ(from_stream.stats.hits, from_trace.stats.hits);
    EXPECT_EQ(from_stream.stats.misses, from_trace.stats.misses);
    EXPECT_EQ(from_stream.stats.isomorphism_probes,
              from_trace.stats.isomorphism_probes);
    EXPECT_EQ(from_stream.stats.hash_collisions,
              from_trace.stats.hash_collisions);

    EXPECT_EQ(fitted.vectors, trace_fitted.vectors);
    EXPECT_EQ(fitted.dictionary, trace_fitted.dictionary);
    EXPECT_EQ(model::serialize_model(
                  model::build_model_full(from_stream, fitted, cfg)),
              trace_bytes);
  }
}

// A job whose rows reappear after its group closed would be fitted as two
// jobs; the stream is refused before anything is clustered, whereas the
// Trace overload regroups the rows by job name.
TEST(FullTrace, FragmentedStreamIsAnError) {
  const auto trace = make_trace(600, 23);
  // Move the last row of the first three multi-row jobs to the end.
  std::vector<trace::TaskRecord> rows = trace.tasks;
  std::vector<trace::TaskRecord> moved;
  for (std::size_t i = 1; i < rows.size() && moved.size() < 3;) {
    const bool last_of_job = i + 1 == rows.size() ||
                             rows[i + 1].job_name != rows[i].job_name;
    if (last_of_job && rows[i - 1].job_name == rows[i].job_name) {
      moved.push_back(rows[i]);
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  ASSERT_EQ(moved.size(), 3u);
  rows.insert(rows.end(), moved.begin(), moved.end());
  std::ostringstream out;
  trace::write_batch_task_csv(out, rows);

  const CharacterizationPipeline pipeline{PipelineConfig{}};
  trace::Trace regrouped;
  regrouped.tasks = rows;
  EXPECT_EQ(pipeline.run_full(regrouped).total_jobs(),
            pipeline.run_full(trace).total_jobs());

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial stream" : "pooled stream");
    std::istringstream in(out.str());
    IngestStats stats;
    try {
      pipeline.run_full(in, p, nullptr, &stats);
      ADD_FAILURE() << "a fragmented stream was fitted";
    } catch (const util::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("3 job group"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(stats.stream.fragmented, 3u);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// On a pool the mini-batch restarts run side by side, and the validation's
// exact reference runs on a worker beside the clustering (beside the
// caller's landmark run): no output may move a bit, at any pool size.
TEST(FullTrace, PooledMatchesSerial) {
  const auto trace = make_trace(2500, 11);
  for (const cluster::ScaleMethod method :
       {cluster::ScaleMethod::MiniBatch, cluster::ScaleMethod::Landmark}) {
    PipelineConfig cfg;
    cfg.full_method = method;
    const CharacterizationPipeline pipeline(cfg);
    const auto serial = pipeline.run_full(trace);
    ASSERT_GT(serial.agreement.items, 0u);
    for (const unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(cluster::to_string(method)) + " on " +
                   std::to_string(workers) + " workers");
      util::ThreadPool pool(workers);
      const auto pooled = pipeline.run_full(trace, &pool);
      EXPECT_EQ(pooled.shape_labels, serial.shape_labels);
      EXPECT_EQ(pooled.shape_of, serial.shape_of);
      EXPECT_EQ(pooled.method, serial.method);
      EXPECT_TRUE(same_bits(pooled.inertia, serial.inertia))
          << pooled.inertia << " vs " << serial.inertia;
      EXPECT_EQ(pooled.agreement.items, serial.agreement.items);
      EXPECT_TRUE(same_bits(pooled.agreement.ari, serial.agreement.ari))
          << pooled.agreement.ari << " vs " << serial.agreement.ari;
      EXPECT_TRUE(same_bits(pooled.agreement.nmi, serial.agreement.nmi))
          << pooled.agreement.nmi << " vs " << serial.agreement.nmi;
    }
  }
}

TEST(FullTrace, LandmarkMethodReportsItsMetadata) {
  const auto trace = make_trace(3000, 13);
  PipelineConfig cfg;
  cfg.full_method = cluster::ScaleMethod::Landmark;
  const CharacterizationPipeline pipeline(cfg);
  const auto result = pipeline.run_full(trace);
  if (!result.degraded) {
    EXPECT_EQ(result.method, cluster::ScaleMethod::Landmark);
    EXPECT_GT(result.landmarks, 0u);
    EXPECT_GT(result.embedding_dims, 0u);
  }
}

TEST(FullTrace, EmptyTraceThrows) {
  trace::Trace empty;
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  EXPECT_THROW(pipeline.run_full(empty), util::InvalidArgument);
}

// Fewer than one cluster is an error, not a silent single group; more
// clusters than shapes are clamped to the shapes.
TEST(FullTrace, ClusterCountBelowOneThrows) {
  const auto trace = make_trace(600, 19);
  PipelineConfig cfg;
  for (const int clusters : {0, -3}) {
    cfg.clustering.clusters = clusters;
    EXPECT_THROW(CharacterizationPipeline(cfg).run_full(trace),
                 util::InvalidArgument)
        << clusters;
  }
  cfg.clustering.clusters = 100000;
  const auto clamped = CharacterizationPipeline(cfg).run_full(trace);
  EXPECT_LE(clamped.groups.size(), clamped.table.size());
}

// The full-trace pipeline featurizes once per distinct shape through the
// sampled pipeline's one featurize step, with or without a pool.
TEST(FullTrace, FittedFeaturesAlignWithShapes) {
  const auto trace = make_trace(2000, 17);
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  util::ThreadPool pool(4);
  FittedFeatures fitted;
  const auto result = pipeline.run_full(trace, &pool, &fitted);
  EXPECT_EQ(fitted.vectors.size(), result.table.size());
  EXPECT_FALSE(fitted.dictionary.empty());
  const FittedFeatures expected =
      featurize_jobs(result.table.exemplars, pipeline.config().similarity);
  EXPECT_EQ(fitted.vectors, expected.vectors);
  EXPECT_EQ(fitted.dictionary, expected.dictionary);
}

}  // namespace
}  // namespace cwgl::core
