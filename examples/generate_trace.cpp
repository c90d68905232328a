// Writes a schema-exact synthetic Alibaba-v2018 trace to disk:
// <out_dir>/batch_task.csv and <out_dir>/batch_instance.csv.
//
//   ./generate_trace <out_dir> [num_jobs] [seed] [--no-instances]
//
// The output is row-compatible with tooling written for the real
// cluster-trace-v2018 batch files.

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "obs/stopwatch.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

using namespace cwgl;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: generate_trace <out_dir> [num_jobs] [seed] [--no-instances]\n";
    return 2;
  }
  trace::GeneratorConfig cfg;
  cfg.num_jobs = 10000;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-instances") == 0) {
      cfg.emit_instances = false;
    } else if (i == 2) {
      cfg.num_jobs = std::strtoull(argv[i], nullptr, 10);
    } else if (i == 3) {
      cfg.seed = std::strtoull(argv[i], nullptr, 10);
    }
  }

  obs::Stopwatch timer;
  const trace::Trace data = trace::TraceGenerator(cfg).generate();
  trace::write_trace(data, argv[1]);
  std::cout << "wrote " << data.tasks.size() << " task rows and "
            << data.instances.size() << " instance rows to " << argv[1]
            << " in " << timer.millis() << " ms (seed " << cfg.seed << ")\n";
  return 0;
}
