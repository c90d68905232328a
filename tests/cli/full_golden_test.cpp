// Full-trace golden: the report of
// `cwgl characterize --full[=landmark] --jobs 20000 --seed 42 --json` is
// committed under tests/data/golden/ and rebuilt here through the in-process
// CLI entry, byte for byte. It pins what the sampled PaperGolden documents
// cannot: the mini-batch and landmark group populations and statistics,
// their medoid shapes, the backend's inertia, and the agreement against
// the exact pipeline.
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
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "support/golden.hpp"

namespace cwgl::cli {
namespace {

using golden::committed;
using golden::expect_identical;

/// `cwgl characterize <method> --jobs 20000 --seed 42 --json`, without its
/// "timings" member.
std::string rebuild(const std::string& method) {
  const std::vector<const char*> argv{"cwgl",   "characterize", method.c_str(),
                                      "--jobs", "20000",        "--seed",
                                      "42",     "--json"};
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

}  // namespace
}  // namespace cwgl::cli
