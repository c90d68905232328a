// A5 — scalability of the graph-learning pipeline: kernel-matrix build time
// vs corpus size (quadratic pair count, near-linear featurization), thread
// scaling of the Gram stage, and end-to-end pipeline time vs trace size.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/pipeline.hpp"
#include "kernel/gram.hpp"
#include "kernel/wl.hpp"
#include "util/strings.hpp"
#include "obs/stopwatch.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  bench::banner("A5", "scalability: corpus size, threads, end-to-end pipeline");
  std::cout << util::pad_left("corpus", 8) << util::pad_left("gram ms", 10)
            << util::pad_left("ms/pair", 10) << "\n";
  for (std::size_t n : {25u, 50u, 100u, 200u, 400u}) {
    const auto sample = bench::make_experiment_set(20000, n);
    std::vector<kernel::LabeledGraph> corpus;
    for (const auto& job : sample) corpus.push_back(job.to_labeled());
    kernel::WlSubtreeFeaturizer featurizer;
    obs::Stopwatch timer;
    const auto gram = kernel::gram_matrix(featurizer, corpus);
    const double ms = timer.millis();
    const double pairs =
        static_cast<double>(corpus.size() * (corpus.size() + 1)) / 2.0;
    std::cout << util::pad_left(std::to_string(corpus.size()), 8)
              << util::pad_left(util::format_double(ms, 1), 10)
              << util::pad_left(util::format_double(ms / pairs, 4), 10) << "\n";
    reporter.set("gram_" + std::to_string(corpus.size()) + "_ms", ms);
  }

  // Differential: the pooled Gram (serial featurization, dot products on
  // the pool) against the serial reference. "max|diff|" is the elementwise
  // deviation between the two Gram matrices — the determinism contract
  // requires <= 1e-12. The gram_par_* metrics feed bench_diff's --min-bar
  // speedup gate, so they always run >= 5 paired reps (serial and pooled
  // interleaved, per-rep speedup ratios) even under the smoke pass's
  // CWGL_BENCH_REPS=1 — a single rep made the gate flaky. A CWGL_BENCH_JOBS
  // cap can shrink two requested sizes to the same corpus; each distinct
  // corpus size is measured once.
  std::cout << "\nserial vs parallel gram (4 threads, serial featurization, "
               "pooled dots)\n"
            << util::pad_left("corpus", 8) << util::pad_left("serial ms", 11)
            << util::pad_left("par ms", 10) << util::pad_left("speedup", 9)
            << util::pad_left("max|diff|", 12) << "\n";
  util::ThreadPool pool(4);
  const std::size_t par_reps =
      std::max<std::size_t>(5, bench::env_size("CWGL_BENCH_REPS", 5));
  std::size_t last_size = 0;
  for (std::size_t n : {100u, 250u, 500u}) {
    const auto sample = bench::make_experiment_set(20000, n);
    if (sample.size() == last_size) continue;
    last_size = sample.size();
    std::vector<kernel::LabeledGraph> corpus;
    for (const auto& job : sample) corpus.push_back(job.to_labeled());

    std::vector<double> serial_series, pooled_series, speedup_series;
    double max_diff = 0.0;
    for (std::size_t rep = 0; rep < par_reps; ++rep) {
      // Fresh featurizers each rep: the dictionary grows while interning,
      // so a reused one would time a different (all-hit) workload.
      kernel::WlSubtreeFeaturizer serial_f;
      obs::Stopwatch serial_timer;
      const auto serial = kernel::gram_matrix(serial_f, corpus);
      const double serial_ms = serial_timer.millis();

      kernel::WlSubtreeFeaturizer parallel_f;
      obs::Stopwatch parallel_timer;
      const auto parallel = kernel::gram_matrix(parallel_f, corpus, {}, &pool);
      const double parallel_ms = parallel_timer.millis();

      serial_series.push_back(serial_ms);
      pooled_series.push_back(parallel_ms);
      speedup_series.push_back(serial_ms / parallel_ms);
      max_diff = std::max(max_diff, serial.max_abs_diff(parallel));
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[(v.size() - 1) / 2];
    };
    const double serial_med = median(serial_series);
    const double pooled_med = median(pooled_series);
    std::cout << util::pad_left(std::to_string(corpus.size()), 8)
              << util::pad_left(util::format_double(serial_med, 1), 11)
              << util::pad_left(util::format_double(pooled_med, 1), 10)
              << util::pad_left(util::format_double(median(speedup_series), 2), 9)
              << util::pad_left(util::format_double(max_diff, 15), 19)
              << "\n";
    const std::string prefix = "gram_par_" + std::to_string(corpus.size());
    reporter.series(prefix + "_serial_ms", serial_series);
    reporter.series(prefix + "_pooled_ms", pooled_series);
    reporter.series(prefix + "_speedup", speedup_series, "x");
  }
}

void BM_GramVsCorpusSize(benchmark::State& state) {
  const auto sample = bench::make_experiment_set(
      20000, static_cast<std::size_t>(state.range(0)));
  std::vector<kernel::LabeledGraph> corpus;
  for (const auto& job : sample) corpus.push_back(job.to_labeled());
  for (auto _ : state) {
    kernel::WlSubtreeFeaturizer featurizer;
    benchmark::DoNotOptimize(kernel::gram_matrix(featurizer, corpus));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GramVsCorpusSize)->RangeMultiplier(2)->Range(25, 400)
    ->Complexity(benchmark::oNSquared)->Unit(benchmark::kMillisecond);

void BM_GramThreads(benchmark::State& state) {
  const auto sample = bench::make_experiment_set(20000, 200);
  std::vector<kernel::LabeledGraph> corpus;
  for (const auto& job : sample) corpus.push_back(job.to_labeled());
  util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    kernel::WlSubtreeFeaturizer featurizer;
    benchmark::DoNotOptimize(kernel::gram_matrix(featurizer, corpus, {}, &pool));
  }
}
BENCHMARK(BM_GramThreads)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_EndToEndPipeline(benchmark::State& state) {
  const trace::Trace data =
      bench::make_trace(static_cast<std::size_t>(state.range(0)));
  core::PipelineConfig cfg;
  cfg.sample_size = 100;
  const core::CharacterizationPipeline pipeline(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(data));
  }
}
BENCHMARK(BM_EndToEndPipeline)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("scalability");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
