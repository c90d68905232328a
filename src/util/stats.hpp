#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cwgl::util {

/// Streaming univariate summary (Welford's online algorithm).
///
/// Accumulates count / min / max / mean / variance in one pass without
/// storing samples; numerically stable for long streams.
class RunningSummary {
 public:
  /// Folds one observation into the summary.
  void add(double x) noexcept;

  /// Merges another summary (parallel reduction support).
  void merge(const RunningSummary& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Order statistics of a sample (copies and sorts once on construction).
class Quantiles {
 public:
  explicit Quantiles(std::span<const double> values);

  bool empty() const noexcept { return sorted_.empty(); }

  /// Linear-interpolation quantile, q in [0,1]. Returns 0 for empty input.
  double quantile(double q) const noexcept;
  double median() const noexcept { return quantile(0.5); }
  double p25() const noexcept { return quantile(0.25); }
  double p75() const noexcept { return quantile(0.75); }
  double p95() const noexcept { return quantile(0.95); }
  double min() const noexcept { return sorted_.empty() ? 0.0 : sorted_.front(); }
  double max() const noexcept { return sorted_.empty() ? 0.0 : sorted_.back(); }

 private:
  std::vector<double> sorted_;
};

/// Integer-keyed frequency counter, the workhorse for "jobs per size group"
/// style figures. Keys iterate in ascending order.
class IntHistogram {
 public:
  void add(long long key, std::size_t weight = 1);

  std::size_t total() const noexcept { return total_; }
  std::size_t count(long long key) const noexcept;
  bool empty() const noexcept { return bins_.empty(); }
  std::size_t distinct() const noexcept { return bins_.size(); }

  /// Ascending (key, count) pairs.
  std::vector<std::pair<long long, std::size_t>> items() const;

  /// Fraction of total mass at `key` (0 when the histogram is empty).
  double fraction(long long key) const noexcept;

 private:
  std::map<long long, std::size_t> bins_;
  std::size_t total_ = 0;
};

/// Five-number + mean description of a sample, for compact report rows.
struct Distribution {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

/// Computes the `Distribution` of the sample in which `values[i]` occurs
/// `counts[i]` times, without expanding it; empty `counts` means once each.
/// Order statistics (min/p25/median/p75/max) are bit-identical to the
/// expanded sample's. The mean is a count-weighted Welford pass in input
/// order: with unit counts it is exactly RunningSummary's mean, otherwise
/// the expanded mean up to rounding. Zero counts are ignored. Throws
/// InvalidArgument when `counts` is neither empty nor one per value.
Distribution describe(std::span<const double> values,
                      std::span<const std::uint64_t> counts = {});

/// Multiplicity of row `i` of a count-weighted input: `weights[i]`, or 1
/// when `weights` is empty (the unweighted case).
template <typename W>
W weight_at(std::span<const W> weights, std::size_t i) noexcept {
  return weights.empty() ? W{1} : weights[i];
}

/// Throws InvalidArgument, prefixed by `what`, unless `counts` is empty or
/// holds one entry per row.
void check_counts(std::span<const std::uint64_t> counts, std::size_t rows,
                  std::string_view what);

/// `check_counts` for real-valued weights, which must also be finite and
/// positive.
void check_weights(std::span<const double> weights, std::size_t rows,
                   std::string_view what);

/// Points per row of a point-to-row map, `item_of[p]` being the row of
/// point p (e.g. a sample job's distinct shape). An empty map means one
/// point per row and yields no counts, the unweighted case of weight_at.
/// Throws InvalidArgument, prefixed by `what`, when a row id is out of
/// range or a row has no point.
std::vector<std::uint64_t> item_counts(std::span<const std::uint32_t> item_of,
                                       std::size_t rows, std::string_view what);

/// Pearson correlation of two equal-length samples; 0 if degenerate.
double pearson(std::span<const double> x, std::span<const double> y);

/// Jensen–Shannon divergence (natural log) between two discrete
/// distributions given as histograms over the same integer key space.
/// Symmetric, in [0, ln 2]; 0 iff the normalized distributions are equal.
/// Empty-vs-empty is 0; empty-vs-nonempty is ln 2 (maximally different).
double jensen_shannon(const IntHistogram& p, const IntHistogram& q);

}  // namespace cwgl::util
