#include "cluster/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace cwgl::cluster {

double silhouette_score(const linalg::Matrix& distances,
                        std::span<const int> labels,
                        std::span<const double> weights) {
  const std::size_t n = labels.size();
  if (distances.rows() != n || distances.cols() != n) {
    throw util::InvalidArgument("silhouette_score: matrix/labels size mismatch");
  }
  util::check_weights(weights, n, "silhouette_score");
  const auto sizes = cluster_sizes(labels);
  std::vector<double> mass(sizes.size(), 0.0);
  double total_mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mass[labels[i]] += util::weight_at(weights, i);
    total_mass += util::weight_at(weights, i);
  }
  std::size_t populated = 0;
  for (double m : mass) populated += (m > 0.0);
  if (populated < 2) return 0.0;

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mass[labels[i]] <= 1.0) continue;  // singleton scores 0
    // Distance mass from one copy of item i to every cluster, counting
    // every copy of every item except that copy itself.
    std::vector<double> sum(sizes.size(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double copies = util::weight_at(weights, j) - (j == i ? 1.0 : 0.0);
      if (copies > 0.0) sum[labels[j]] += copies * distances(i, j);
    }
    // Mean distance to own cluster (a) and nearest other cluster (b).
    const double a = sum[labels[i]] / (mass[labels[i]] - 1.0);
    double b = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      if (static_cast<int>(c) == labels[i] || mass[c] <= 0.0) continue;
      b = std::min(b, sum[c] / mass[c]);
    }
    const double denom = std::max(a, b);
    total += denom > 0.0 ? util::weight_at(weights, i) * (b - a) / denom : 0.0;
  }
  return total / total_mass;
}

namespace {

double choose2(double x) { return x * (x - 1.0) / 2.0; }

}  // namespace

double adjusted_rand_index(std::span<const int> a, std::span<const int> b) {
  if (a.size() != b.size()) {
    throw util::InvalidArgument("adjusted_rand_index: size mismatch");
  }
  const std::size_t n = a.size();
  if (n < 2) return 1.0;
  std::map<std::pair<int, int>, std::size_t> contingency;
  std::map<int, std::size_t> rows, cols;
  for (std::size_t i = 0; i < n; ++i) {
    ++contingency[{a[i], b[i]}];
    ++rows[a[i]];
    ++cols[b[i]];
  }
  double index = 0.0;
  for (const auto& [key, count] : contingency) index += choose2(static_cast<double>(count));
  double sum_rows = 0.0, sum_cols = 0.0;
  for (const auto& [key, count] : rows) sum_rows += choose2(static_cast<double>(count));
  for (const auto& [key, count] : cols) sum_cols += choose2(static_cast<double>(count));
  const double expected = sum_rows * sum_cols / choose2(static_cast<double>(n));
  const double max_index = 0.5 * (sum_rows + sum_cols);
  const double denom = max_index - expected;
  if (std::abs(denom) < 1e-15) return 1.0;  // both partitions trivial
  return (index - expected) / denom;
}

double normalized_mutual_information(std::span<const int> a,
                                     std::span<const int> b) {
  if (a.size() != b.size()) {
    throw util::InvalidArgument("normalized_mutual_information: size mismatch");
  }
  const double n = static_cast<double>(a.size());
  if (a.empty()) return 1.0;
  std::map<std::pair<int, int>, double> joint;
  std::map<int, double> pa, pb;
  for (std::size_t i = 0; i < a.size(); ++i) {
    joint[{a[i], b[i]}] += 1.0;
    pa[a[i]] += 1.0;
    pb[b[i]] += 1.0;
  }
  double mi = 0.0;
  for (const auto& [key, count] : joint) {
    const double pxy = count / n;
    const double px = pa[key.first] / n;
    const double py = pb[key.second] / n;
    mi += pxy * std::log(pxy / (px * py));
  }
  double ha = 0.0, hb = 0.0;
  for (const auto& [key, count] : pa) ha -= (count / n) * std::log(count / n);
  for (const auto& [key, count] : pb) hb -= (count / n) * std::log(count / n);
  const double denom = 0.5 * (ha + hb);
  if (denom < 1e-15) return 1.0;  // both partitions are single clusters
  return std::max(0.0, mi / denom);
}

double purity(std::span<const int> predicted, std::span<const int> truth) {
  if (predicted.size() != truth.size()) {
    throw util::InvalidArgument("purity: size mismatch");
  }
  if (predicted.empty()) return 1.0;
  std::map<int, std::map<int, std::size_t>> per_cluster;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    ++per_cluster[predicted[i]][truth[i]];
  }
  std::size_t correct = 0;
  for (const auto& [cluster, classes] : per_cluster) {
    std::size_t best = 0;
    for (const auto& [cls, count] : classes) best = std::max(best, count);
    correct += best;
  }
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

int cluster_count(std::span<const int> labels) {
  std::set<int> ids(labels.begin(), labels.end());
  return static_cast<int>(ids.size());
}

std::vector<std::size_t> cluster_sizes(std::span<const int> labels) {
  int max_id = -1;
  for (int l : labels) max_id = std::max(max_id, l);
  std::vector<std::size_t> sizes(static_cast<std::size_t>(max_id + 1), 0);
  for (int l : labels) {
    if (l < 0) throw util::InvalidArgument("cluster_sizes: negative label");
    ++sizes[l];
  }
  return sizes;
}

}  // namespace cwgl::cluster
