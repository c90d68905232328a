// The dense spectral path is O(n^2) memory and O(n^3) eigensolve; above
// SpectralOptions::max_dense_items it must refuse with a typed error that
// points the caller at the scalable path instead of silently burning hours.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/spectral.hpp"
#include "util/error.hpp"

namespace cwgl::cluster {
namespace {

linalg::Matrix identity_similarity(std::size_t n) {
  linalg::Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) w(i, j) = i == j ? 1.0 : 0.1;
  }
  return w;
}

TEST(DenseGuard, AboveLimitThrowsPointingAtFullPath) {
  SpectralOptions opt;
  opt.max_dense_items = 16;
  const auto w = identity_similarity(17);
  try {
    spectral_cluster(w, 2, opt);
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--full"), std::string::npos) << what;
    EXPECT_NE(what.find("max_dense_items"), std::string::npos) << what;
  }
}

TEST(DenseGuard, MappedVariantGuardsRowsNotPoints) {
  // Two points per row: the guard counts the distinct rows the dense
  // eigensolve sees, not the points mapped onto them.
  SpectralOptions opt;
  opt.max_dense_items = 16;
  const auto two_per_row = [](std::uint32_t rows) {
    std::vector<std::uint32_t> item_of;
    for (std::uint32_t t = 0; t < rows; ++t) {
      item_of.insert(item_of.end(), 2, t);
    }
    return item_of;
  };
  EXPECT_THROW(
      spectral_cluster(identity_similarity(17), 2, opt, two_per_row(17)),
      util::InvalidArgument);
  const auto result =
      spectral_cluster(identity_similarity(16), 2, opt, two_per_row(16));
  EXPECT_EQ(result.labels.size(), 16u);
}

TEST(DenseGuard, AtLimitStillRuns) {
  SpectralOptions opt;
  opt.max_dense_items = 16;
  const auto w = identity_similarity(16);
  const auto result = spectral_cluster(w, 2, opt);
  EXPECT_EQ(result.labels.size(), 16u);
}

TEST(DenseGuard, ZeroDisablesTheGuard) {
  SpectralOptions opt;
  opt.max_dense_items = 0;
  const auto w = identity_similarity(32);
  const auto result = spectral_cluster(w, 2, opt);
  EXPECT_EQ(result.labels.size(), 32u);
}

}  // namespace
}  // namespace cwgl::cluster
