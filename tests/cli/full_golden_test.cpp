// Full-trace golden: the report of
// `cwgl characterize --full[=landmark] --jobs 20000 --seed 42 --json` is
// committed under tests/data/golden/ and rebuilt here through the in-process
// CLI entry, byte for byte. It pins what the sampled PaperGolden documents
// cannot: the mini-batch and landmark group populations and statistics,
// their medoid shapes, the backend's inertia, and the agreement against
// the exact pipeline. The same documents pin the streamed path
// (`--full --trace DIR` over the generated task file): its pooled,
// memoized ingest must report what the generated Trace path does.
//
// Regenerating after an INTENTIONAL change (the sed drops "timings", the
// only member that varies run to run):
//   cwgl characterize --full --jobs 20000 --seed 42 --json
//     | sed 's/,"timings":{[^}]*}}$/}/'
//     > tests/data/golden/characterize_full_seed42.json
//   cwgl characterize --full=landmark --jobs 20000 --seed 42 --json
//     | sed 's/,"timings":{[^}]*}}$/}/'
//     > tests/data/golden/characterize_full_seed42_landmark.json

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "support/golden.hpp"

namespace cwgl::cli {
namespace {

using golden::committed;
using golden::expect_identical;

/// `cwgl characterize <method> <input...> --json`, without its "timings"
/// member; the input defaults to `--jobs 20000 --seed 42`.
std::string rebuild(const std::string& method,
                    std::vector<const char*> input = {"--jobs", "20000",
                                                      "--seed", "42"}) {
  std::vector<const char*> argv{"cwgl", "characterize", method.c_str()};
  argv.insert(argv.end(), input.begin(), input.end());
  argv.push_back("--json");
  std::ostringstream out, err;
  const int code =
      run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  EXPECT_EQ(code, 0) << err.str();
  std::string doc = out.str();
  const std::size_t from = doc.find(",\"timings\":{");
  EXPECT_NE(from, std::string::npos) << doc;
  if (from != std::string::npos) {
    doc.erase(from, doc.find('}', from) + 1 - from);
  }
  return doc;
}

TEST(FullTraceGolden, CharacterizeFullSeed42) {
  expect_identical(committed("characterize_full_seed42.json"),
                   rebuild("--full"));
}

TEST(FullTraceGolden, CharacterizeFullSeed42Landmark) {
  expect_identical(committed("characterize_full_seed42_landmark.json"),
                   rebuild("--full=landmark"));
}

/// The task file of `cwgl generate --jobs 20000 --seed 42` in temporary
/// directory `name`, removed on destruction.
struct GeneratedTrace {
  std::filesystem::path dir;

  explicit GeneratedTrace(const std::string& name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    const std::string out_dir = dir.string();
    const std::vector<const char*> argv{
        "cwgl", "generate", "--out", out_dir.c_str(), "--jobs", "20000",
        "--seed", "42", "--no-instances"};
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(static_cast<int>(argv.size()), argv.data(), out, err), 0)
        << err.str();
  }
  ~GeneratedTrace() { std::filesystem::remove_all(dir); }
};

TEST(FullTraceGolden, CharacterizeFullStreamedSeed42) {
  const GeneratedTrace trace("cwgl_full_golden_streamed");
  const std::string dir = trace.dir.string();
  expect_identical(committed("characterize_full_seed42.json"),
                   rebuild("--full", {"--trace", dir.c_str()}));
}

TEST(FullTraceGolden, CharacterizeFullStreamedSeed42Landmark) {
  const GeneratedTrace trace("cwgl_full_golden_streamed_landmark");
  const std::string dir = trace.dir.string();
  expect_identical(committed("characterize_full_seed42_landmark.json"),
                   rebuild("--full=landmark", {"--trace", dir.c_str()}));
}

}  // namespace
}  // namespace cwgl::cli
