// Paper-configuration golden: the figure-keyed report of
// `cwgl characterize --jobs 20000 --seed 42 [--natural] --json` is committed
// under tests/data/golden/ and rebuilt here in-process, serially, byte for
// byte. Every member is pinned: the Table 1 census, Figs. 3-7, the pattern
// census and Fig. 9 with its labels and medoids. A change that moves any
// reproduced number fails this suite before it reaches EXPERIMENTS.md.
//
// Regenerating after an INTENTIONAL change to a reproduced figure (the sed
// drops the CLI's "timings" member, the only part that varies run to run):
//   cwgl characterize --jobs 20000 --seed 42 --json
//     | sed 's/,"timings":{[^}]*}}$/}/'
//     > tests/data/golden/characterize_seed42.json
//   cwgl characterize --jobs 20000 --seed 42 --natural --json
//     | sed 's/,"timings":{[^}]*}}$/}/'
//     > tests/data/golden/characterize_seed42_natural.json

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "support/golden.hpp"
#include "trace/generator.hpp"

namespace cwgl::core {
namespace {

using golden::committed;
using golden::expect_identical;

/// The document `characterize` prints for the paper configuration, with
/// the CLI's defaults (100-job sample, 5 clusters) and its trailing newline.
std::string rebuild(SamplingMode sampling) {
  trace::GeneratorConfig gen;
  gen.num_jobs = 20000;
  gen.seed = 42;
  gen.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(gen).generate();
  PipelineConfig cfg;
  cfg.sampling = sampling;
  std::ostringstream out;
  write_json(out, CharacterizationPipeline(cfg).run(data));
  out << "\n";
  return out.str();
}

TEST(PaperGolden, CharacterizeSeed42) {
  expect_identical(committed("characterize_seed42.json"),
                   rebuild(SamplingMode::VariabilityStratified));
}

TEST(PaperGolden, CharacterizeSeed42Natural) {
  expect_identical(committed("characterize_seed42_natural.json"),
                   rebuild(SamplingMode::Natural));
}

}  // namespace
}  // namespace cwgl::core
