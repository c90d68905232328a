// The dense spectral path is O(n^2) memory and O(n^3) eigensolve; above
// SpectralOptions::max_dense_items it must refuse with a typed error that
// points the caller at the scalable path instead of silently burning hours.

#include <gtest/gtest.h>

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

TEST(DenseGuard, WeightedVariantGuardedToo) {
  SpectralOptions opt;
  opt.max_dense_items = 16;
  const auto w = identity_similarity(17);
  const std::vector<double> weights(17, 1.0);
  EXPECT_THROW(spectral_cluster(w, 2, opt, weights),
               util::InvalidArgument);
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
