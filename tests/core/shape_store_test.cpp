#include "core/shape_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ingest.hpp"
#include "graph/canonical.hpp"
#include "support/canonical_oracle.hpp"
#include "trace/group_stream.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

trace::TaskRecord task(std::string name, std::string job) {
  trace::TaskRecord t;
  t.task_name = std::move(name);
  t.job_name = std::move(job);
  t.instance_num = 1;
  t.status = trace::Status::Terminated;
  t.start_time = 100;
  t.end_time = 200;
  t.plan_cpu = 100.0;
  t.plan_mem = 0.5;
  return t;
}

JobDag make_job(const std::vector<std::string>& names, std::string job_name) {
  std::vector<trace::TaskRecord> records;
  for (const auto& n : names) records.push_back(task(n, job_name));
  auto job = build_job_dag(job_name, records);
  EXPECT_TRUE(job.has_value());
  return *job;
}

JobDag chain2(const std::string& name) { return make_job({"M1", "R2_1"}, name); }
JobDag chain3(const std::string& name) {
  return make_job({"M1", "R2_1", "R3_2"}, name);
}
JobDag fan_in(const std::string& name) {
  return make_job({"M1", "M2", "R3_2_1"}, name);
}

TEST(ShapeStore, DeduplicatesIsomorphicJobsAndCountsMultiplicity) {
  ShapeStore store;
  store.intern(chain2("j_a"), 0);
  store.intern(fan_in("j_b"), 1);
  // Same chain topology under renumbered task names: must still dedup.
  store.intern(make_job({"M4", "R9_4"}, "j_c"), 2);
  store.intern(chain2("j_d"), 3);

  const ShapeStore::Stats stats = store.stats();
  EXPECT_EQ(stats.total_jobs, 4u);
  EXPECT_EQ(stats.distinct_shapes, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);

  const ShapeTable table = store.freeze_with_ids().table;
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.total_jobs, 4u);
  EXPECT_EQ(table.shapes[0].count, 3u);  // the chain, first seen at seq 0
  EXPECT_EQ(table.shapes[1].count, 1u);
  EXPECT_EQ(table.exemplars[0].job_name, "j_a");
  EXPECT_EQ(table.exemplars[1].job_name, "j_b");
}

TEST(ShapeStore, FrozenTableIsInFirstSeenOrderWithDenseIds) {
  ShapeStore store;
  const auto* c3 = store.intern(chain3("j_0"), 0);
  const auto* c2 = store.intern(chain2("j_1"), 1);
  const auto* fi = store.intern(fan_in("j_2"), 2);
  store.intern(chain2("j_3"), 3);

  const ShapeStore::FrozenView view = store.freeze_with_ids();
  ASSERT_EQ(view.table.size(), 3u);
  EXPECT_EQ(view.id_of.at(c3), 0u);
  EXPECT_EQ(view.id_of.at(c2), 1u);
  EXPECT_EQ(view.id_of.at(fi), 2u);
  EXPECT_EQ(view.table.shapes[0].first_seq, 0u);
  EXPECT_EQ(view.table.shapes[1].first_seq, 1u);
  EXPECT_EQ(view.table.shapes[2].first_seq, 2u);
}

// Freezing hands the exemplars over: the table owns them and the store,
// which keeps its counters and its handles' shape ids, interns no more.
TEST(ShapeStore, FreezeHandsExemplarsOverAndEndsInterning) {
  ShapeStore store;
  const auto* chain = store.intern(chain2("j_a"), 0);
  store.intern(chain2("j_b"), 1);
  store.intern(fan_in("j_c"), 2);

  const ShapeStore::FrozenView view = store.freeze_with_ids();
  ASSERT_EQ(view.table.size(), 2u);
  EXPECT_EQ(view.table.exemplars[0].job_name, "j_a");
  EXPECT_EQ(view.table.exemplars[0].size(), 2);
  EXPECT_EQ(view.table.exemplars[1].job_name, "j_c");
  EXPECT_EQ(view.id_of.at(chain), 0u);
  EXPECT_EQ(chain->count, 2u);

  const ShapeStore::Stats stats = store.stats();
  EXPECT_EQ(stats.total_jobs, 3u);
  EXPECT_EQ(stats.distinct_shapes, 2u);
  EXPECT_EQ(stats.hits, 1u);

  EXPECT_THROW(store.intern(chain2("j_d"), 3), util::Error);
  EXPECT_THROW(store.freeze_with_ids(), util::Error);
  EXPECT_EQ(store.stats().total_jobs, 3u);
}

TEST(ShapeStore, ExemplarIsTheMinimumSequenceJob) {
  // Intern the same shape with DESCENDING sequence numbers — as a pooled
  // ingest might, when a late batch lands first. The exemplar must end up
  // being the seq-1 job, exactly as a serial pass would have it.
  ShapeStore store;
  store.intern(chain2("late"), 9);
  store.intern(chain2("middle"), 5);
  store.intern(chain2("first"), 1);

  const ShapeTable table = store.freeze_with_ids().table;
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.shapes[0].first_seq, 1u);
  EXPECT_EQ(table.exemplars[0].job_name, "first");
  EXPECT_EQ(table.shapes[0].count, 3u);
}

TEST(ShapeStore, TableRowsCarryStructuralFeatures) {
  ShapeStore store;
  store.intern(fan_in("j_a"), 0);
  const ShapeTable table = store.freeze_with_ids().table;
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.shapes[0].size, 3);
  EXPECT_EQ(table.shapes[0].critical_path, 2);
  EXPECT_EQ(table.shapes[0].width, 2);
  EXPECT_EQ(table.counts(), std::vector<std::uint64_t>{1});
  EXPECT_EQ(table.weights(), std::vector<double>{1.0});
}

TEST(ShapeStore, TruncatedHashForcesIsomorphismFallback) {
  // With a 1-bit intern key every shape lands in one of two buckets, so
  // distinct shapes MUST collide: correctness then rests entirely on the
  // exact-isomorphism walk of the collision chain.
  ShapeStore::Options options;
  options.hash_bits = 1;
  options.shards = 1;
  ShapeStore store(options);

  store.intern(chain2("a"), 0);
  store.intern(chain3("b"), 1);
  store.intern(fan_in("c"), 2);
  store.intern(chain2("d"), 3);
  store.intern(chain3("e"), 4);

  const ShapeStore::Stats stats = store.stats();
  EXPECT_EQ(stats.distinct_shapes, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_GT(stats.hash_collisions, 0u);
  EXPECT_GT(stats.isomorphism_probes, 0u);

  const ShapeTable table = store.freeze_with_ids().table;
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.shapes[0].count, 2u);  // chain2
  EXPECT_EQ(table.shapes[1].count, 2u);  // chain3
  EXPECT_EQ(table.shapes[2].count, 1u);  // fan-in
}

TEST(ShapeStore, FullHashPathKeepsNonIsomorphicShapesApart) {
  // Sanity companion to the truncated test: with the full 64-bit key these
  // shapes do not collide, and no collision chain forms.
  ShapeStore store;
  store.intern(chain2("a"), 0);
  store.intern(chain3("b"), 1);
  store.intern(fan_in("c"), 2);
  EXPECT_EQ(store.stats().hash_collisions, 0u);
  EXPECT_EQ(store.stats().distinct_shapes, 3u);
}

TEST(ShapeStore, ConcurrentInterningOfOneShapeYieldsOneExactEntry) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  ShapeStore store;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {}  // maximize overlap
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t seq =
            static_cast<std::uint64_t>(t) * kPerThread + i;
        store.intern(chain2("j_" + std::to_string(seq)), seq);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const ShapeStore::Stats stats = store.stats();
  EXPECT_EQ(stats.total_jobs,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.distinct_shapes, 1u);
  const ShapeTable table = store.freeze_with_ids().table;
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.shapes[0].count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(table.shapes[0].first_seq, 0u);
  EXPECT_EQ(table.exemplars[0].job_name, "j_0");
}

TEST(ShapeStore, ConcurrentMixedShapesFreezeDeterministically) {
  // Two interleavings of the same job stream across threads must freeze to
  // the same table a serial pass produces.
  const auto build_serial = [] {
    ShapeStore store;
    for (std::uint64_t s = 0; s < 300; ++s) {
      switch (s % 3) {
        case 0: store.intern(chain2("j" + std::to_string(s)), s); break;
        case 1: store.intern(chain3("j" + std::to_string(s)), s); break;
        default: store.intern(fan_in("j" + std::to_string(s)), s); break;
      }
    }
    return store.freeze_with_ids().table;
  };
  const ShapeTable expected = build_serial();

  ShapeStore store;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      // Thread t handles sequences  s ≡ t (mod 4) — disjoint, covering.
      for (std::uint64_t s = static_cast<std::uint64_t>(t); s < 300; s += 4) {
        switch (s % 3) {
          case 0: store.intern(chain2("j" + std::to_string(s)), s); break;
          case 1: store.intern(chain3("j" + std::to_string(s)), s); break;
          default: store.intern(fan_in("j" + std::to_string(s)), s); break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const ShapeTable actual = store.freeze_with_ids().table;

  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual.total_jobs, expected.total_jobs);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual.shapes[i].shape_key, expected.shapes[i].shape_key);
    EXPECT_EQ(actual.shapes[i].count, expected.shapes[i].count);
    EXPECT_EQ(actual.shapes[i].first_seq, expected.shapes[i].first_seq);
    EXPECT_EQ(actual.exemplars[i].job_name, expected.exemplars[i].job_name);
  }
}

// ---------------------------------------------------------------------------
// stream_shape_jobs: the ingest-layer wiring around the store.
// ---------------------------------------------------------------------------

std::string generated_csv(std::size_t jobs, std::uint64_t seed = 42) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = seed;
  cfg.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(cfg).generate();
  std::ostringstream out;
  trace::write_batch_task_csv(out, data.tasks);
  return out.str();
}

TEST(StreamShapeJobs, MatchesDirectIngestJobForJob) {
  const std::string csv = generated_csv(300);
  std::istringstream direct_in(csv);
  const auto direct = stream_dag_jobs(direct_in, {});

  std::istringstream intern_in(csv);
  const InternedIngest interned = stream_shape_jobs(intern_in, {});

  ASSERT_EQ(interned.shape_of.size(), direct.size());
  EXPECT_EQ(interned.table.total_jobs, direct.size());
  EXPECT_EQ(interned.intern.distinct_shapes, interned.table.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const std::uint32_t t = interned.shape_of[i];
    ASSERT_LT(t, interned.table.size());
    // Every job's assigned shape row matches its own structure.
    EXPECT_EQ(interned.table.shapes[t].size, direct[i].size());
    EXPECT_EQ(interned.table.exemplars[t].dag.num_edges(),
              direct[i].dag.num_edges());
  }
}

TEST(StreamShapeJobs, PooledMatchesSerialExactly) {
  const std::string csv = generated_csv(400, 7);

  std::istringstream serial_in(csv);
  const InternedIngest serial = stream_shape_jobs(serial_in, {});

  util::ThreadPool pool(4);
  // Small chunks: many jobs cut by chunk edges, many turns at the stitch,
  // maximum reordering pressure.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096},
                                  trace::kDefaultChunkBytes}) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    IngestOptions options;
    options.chunk_bytes = chunk;
    std::istringstream pooled_in(csv);
    const InternedIngest pooled =
        stream_shape_jobs(pooled_in, options, &pool);

    EXPECT_EQ(pooled.shape_of, serial.shape_of);
    ASSERT_EQ(pooled.table.size(), serial.table.size());
    EXPECT_EQ(pooled.table.total_jobs, serial.table.total_jobs);
    for (std::size_t i = 0; i < serial.table.size(); ++i) {
      EXPECT_EQ(pooled.table.shapes[i].shape_key,
                serial.table.shapes[i].shape_key);
      EXPECT_EQ(pooled.table.shapes[i].count, serial.table.shapes[i].count);
      EXPECT_EQ(pooled.table.shapes[i].first_seq,
                serial.table.shapes[i].first_seq);
      EXPECT_EQ(pooled.table.exemplars[i].job_name,
                serial.table.exemplars[i].job_name);
    }
    EXPECT_EQ(pooled.intern.distinct_shapes, serial.intern.distinct_shapes);
    EXPECT_EQ(pooled.intern.hits, serial.intern.hits);
  }
}

// Every generated job's shape key is the sorting reference hash's value:
// the census and the intern table order ties by these keys.
TEST(ShapeStore, CanonicalHashMatchesTheReferenceOnGeneratedJobs) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    std::istringstream in(generated_csv(1500, seed));
    const std::vector<JobDag> jobs = stream_dag_jobs(in);
    ASSERT_GT(jobs.size(), 500u);
    for (const JobDag& job : jobs) {
      const std::vector<int> labels = job.type_labels();
      ASSERT_EQ(graph::canonical_hash(job.dag, labels),
                oracle::canonical_hash(job.dag, labels))
          << job.job_name;
    }
  }
}

#if defined(CWGL_FAILPOINTS_ENABLED)

class ShapeStoreFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::failpoint::clear(); }
};

TEST_F(ShapeStoreFaultTest, InjectedInternErrorSurfaces) {
  util::failpoint::configure("shape.intern=error*1");
  ShapeStore store;
  EXPECT_THROW(store.intern(chain2("j_a"), 0), util::FailpointError);
  // The failed intern left no partial entry behind.
  EXPECT_EQ(store.stats().total_jobs, 0u);
  EXPECT_EQ(store.stats().distinct_shapes, 0u);
  // And the store still works once the fault clears.
  store.intern(chain2("j_b"), 1);
  EXPECT_EQ(store.stats().distinct_shapes, 1u);
}

TEST_F(ShapeStoreFaultTest, InternFaultSurfacesFromStreamingIngest) {
  util::failpoint::configure("shape.intern=error*1");
  std::istringstream in(generated_csv(50));
  EXPECT_THROW(stream_shape_jobs(in, {}), util::FailpointError);
}

#endif  // CWGL_FAILPOINTS_ENABLED

}  // namespace
}  // namespace cwgl::core
