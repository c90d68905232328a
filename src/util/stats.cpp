#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cwgl::util {

void RunningSummary::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningSummary::merge(const RunningSummary& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningSummary::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningSummary::stddev() const noexcept { return std::sqrt(variance()); }

Quantiles::Quantiles(std::span<const double> values)
    : sorted_(values.begin(), values.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Quantiles::quantile(double q) const noexcept {
  if (sorted_.empty()) return 0.0;
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

void IntHistogram::add(long long key, std::size_t weight) {
  bins_[key] += weight;
  total_ += weight;
}

std::size_t IntHistogram::count(long long key) const noexcept {
  const auto it = bins_.find(key);
  return it == bins_.end() ? 0 : it->second;
}

std::vector<std::pair<long long, std::size_t>> IntHistogram::items() const {
  return {bins_.begin(), bins_.end()};
}

double IntHistogram::fraction(long long key) const noexcept {
  return total_ == 0 ? 0.0
                     : static_cast<double>(count(key)) / static_cast<double>(total_);
}

Distribution describe(std::span<const double> values,
                      std::span<const std::uint64_t> counts) {
  check_counts(counts, values.size(), "describe");
  // Sorted (value, count) pairs with zero counts dropped: the compressed
  // form of the expanded sorted sample.
  std::vector<std::pair<double, std::uint64_t>> sorted;
  sorted.reserve(values.size());
  std::uint64_t total = 0;
  double mean = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t c = weight_at(counts, i);
    if (c == 0) continue;
    sorted.emplace_back(values[i], c);
    total += c;
    mean += (values[i] - mean) * static_cast<double>(c) /
            static_cast<double>(total);
  }
  Distribution d;
  d.count = static_cast<std::size_t>(total);
  if (total == 0) return d;
  d.mean = mean;
  std::sort(sorted.begin(), sorted.end());

  // The expanded sample's order statistic at `rank` via a cumulative scan.
  const auto element_at = [&](std::uint64_t rank) {
    std::uint64_t cumulative = 0;
    for (const auto& [v, c] : sorted) {
      cumulative += c;
      if (rank < cumulative) return v;
    }
    return sorted.back().first;
  };
  // Mirrors Quantiles::quantile exactly: the same pos/lo/frac arithmetic
  // over the (virtual) expanded sorted vector.
  const auto quantile = [&](double q) {
    if (q <= 0.0) return sorted.front().first;
    if (q >= 1.0) return sorted.back().first;
    const double pos = q * static_cast<double>(total - 1);
    const auto lo = static_cast<std::uint64_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= total) return sorted.back().first;
    return element_at(lo) * (1.0 - frac) + element_at(lo + 1) * frac;
  };
  d.min = sorted.front().first;
  d.p25 = quantile(0.25);
  d.median = quantile(0.5);
  d.p75 = quantile(0.75);
  d.max = sorted.back().first;
  return d;
}

void check_counts(std::span<const std::uint64_t> counts, std::size_t rows,
                  std::string_view what) {
  if (!counts.empty() && counts.size() != rows) {
    throw InvalidArgument(std::string(what) + ": one count per row required");
  }
}

void check_weights(std::span<const double> weights, std::size_t rows,
                   std::string_view what) {
  if (!weights.empty() && weights.size() != rows) {
    throw InvalidArgument(std::string(what) + ": one weight per row required");
  }
  for (double w : weights) {
    if (!std::isfinite(w) || w <= 0.0) {
      throw InvalidArgument(std::string(what) + ": weights must be positive");
    }
  }
}

std::vector<std::uint64_t> item_counts(std::span<const std::uint32_t> item_of,
                                       std::size_t rows,
                                       std::string_view what) {
  if (item_of.empty()) return {};
  std::vector<std::uint64_t> counts(rows, 0);
  for (std::uint32_t row : item_of) {
    if (row >= rows) {
      throw InvalidArgument(std::string(what) + ": item id out of range");
    }
    ++counts[row];
  }
  for (std::uint64_t c : counts) {
    if (c == 0) {
      throw InvalidArgument(std::string(what) + ": item with no point");
    }
  }
  return counts;
}

double jensen_shannon(const IntHistogram& p, const IntHistogram& q) {
  if (p.empty() && q.empty()) return 0.0;
  if (p.empty() || q.empty()) return std::log(2.0);
  std::map<long long, std::pair<double, double>> joint;
  for (const auto& [key, count] : p.items()) {
    joint[key].first = static_cast<double>(count) / static_cast<double>(p.total());
  }
  for (const auto& [key, count] : q.items()) {
    joint[key].second = static_cast<double>(count) / static_cast<double>(q.total());
  }
  double div = 0.0;
  for (const auto& [key, pq] : joint) {
    const auto [pp, qq] = pq;
    const double m = 0.5 * (pp + qq);
    if (pp > 0.0) div += 0.5 * pp * std::log(pp / m);
    if (qq > 0.0) div += 0.5 * qq * std::log(qq / m);
  }
  return std::max(0.0, div);
}

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  RunningSummary sx, sy;
  for (double v : x) sx.add(v);
  for (double v : y) sy.add(v);
  const double mx = sx.mean(), my = sy.mean();
  double cov = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) cov += (x[i] - mx) * (y[i] - my);
  const double denom = sx.stddev() * sy.stddev() * static_cast<double>(x.size() - 1);
  return denom == 0.0 ? 0.0 : cov / denom;
}

}  // namespace cwgl::util
