// Full reproduction pipeline: synthesize an Alibaba-v2018-style trace (or
// load one from disk), then run every analysis the paper reports and print
// each figure's data series.
//
//   ./characterize_trace [trace_dir] [num_jobs] [sample_size]
//
// With no arguments a 20k-job synthetic trace is generated in memory. Pass a
// directory containing batch_task.csv (e.g. written by generate_trace) to
// analyze it instead.

#include <cstdlib>
#include <iostream>

#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "core/topology_census.hpp"
#include "obs/stopwatch.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

using namespace cwgl;

int main(int argc, char** argv) {
  std::size_t num_jobs = 20000;
  std::size_t sample_size = 100;
  trace::Trace data;

  obs::Stopwatch timer;
  if (argc > 1 && argv[1][0] != '-' && !std::isdigit(argv[1][0])) {
    std::size_t skipped = 0;
    data = trace::read_trace(argv[1], &skipped);
    std::cout << "loaded " << data.tasks.size() << " task rows from " << argv[1]
              << " (" << skipped << " malformed rows skipped) in "
              << timer.millis() << " ms\n\n";
  } else {
    if (argc > 1) num_jobs = std::strtoull(argv[1], nullptr, 10);
    if (argc > 2) sample_size = std::strtoull(argv[2], nullptr, 10);
    trace::GeneratorConfig cfg;
    cfg.seed = 42;
    cfg.num_jobs = num_jobs;
    cfg.emit_instances = false;
    data = trace::TraceGenerator(cfg).generate();
    std::cout << "generated " << data.tasks.size() << " task rows ("
              << num_jobs << " jobs) in " << timer.millis() << " ms\n\n";
  }

  core::PipelineConfig cfg;
  cfg.sample_size = sample_size;
  cfg.clustering.clusters = 5;
  const core::CharacterizationPipeline pipeline(cfg);

  util::ThreadPool pool;
  timer.reset();
  const core::PipelineResult result = pipeline.run(data, &pool);
  std::cout << "pipeline completed in " << timer.millis() << " ms\n\n";

  core::print_trace_census(std::cout, result.census);
  std::cout << "\n";
  core::print_conflation_report(std::cout, result.conflation);
  std::cout << "\n";
  core::print_structural_report(std::cout, result.structure_before,
                                "Fig 4: job features before node conflation");
  std::cout << "\n";
  core::print_structural_report(std::cout, result.structure_after,
                                "Fig 5: job features after node conflation");
  std::cout << "\n";
  core::print_task_type_report(std::cout, result.task_types);
  std::cout << "\n";
  core::print_pattern_census(std::cout, result.patterns);
  std::cout << "\n";
  core::print_similarity_summary(std::cout, result.similarity.stats(result.sample));
  std::cout << "\n";
  core::print_clustering_analysis(std::cout, result.clustering);

  const auto topo = core::TopologyCensus::compute(result.sample);
  std::cout << "\nrecurring topologies in the sample: "
            << topo.distinct_topologies << " distinct among " << topo.total_jobs
            << " jobs (" << 100.0 * topo.recurring_fraction
            << "% recur)\n";
  return 0;
}
