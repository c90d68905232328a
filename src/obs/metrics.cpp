#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json_escape.hpp"

namespace cwgl::obs {

namespace {

std::string_view stage_subsystem(std::string_view name) {
  std::size_t dot = name.find('.');
  if (dot == std::string_view::npos) return name;
  dot = name.find('.', dot + 1);
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

/// A JSON number in util::JsonWriter's format; null when not finite.
void write_json_double(std::ostream& out, double v) {
  if (!(v == v) || v > 1.7976931348623157e308 || v < -1.7976931348623157e308) {
    out << "null";
    return;
  }
  write_double_g12(out, v);
}

}  // namespace

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the quantile sample, 1-based; walk buckets cumulatively.
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper bound of bucket b: values with bit width b are < 2^b.
      return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    }
  }
  return max();
}

double Histogram::estimate_quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Same 0-based rank convention as quantile(), kept fractional so the
  // within-bucket interpolation below has sub-sample resolution.
  const double rank = q * static_cast<double>(n - 1);
  double seen = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const auto in_bucket =
        static_cast<double>(buckets_[b].load(std::memory_order_relaxed));
    if (in_bucket <= 0.0) continue;
    if (rank < seen + in_bucket) {
      // Bucket b covers [2^(b-1), 2^b); bucket 0 holds only the value 0.
      const double lo = b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (b - 1));
      double hi = b == 0 ? 1.0 : static_cast<double>(std::uint64_t{1} << b);
      // The largest observed sample tightens the top bucket's open end.
      const double cap = static_cast<double>(max()) + 1.0;
      if (hi > cap) hi = std::max(lo + 1.0, cap);
      const double fraction = (rank - seen + 0.5) / in_bucket;
      const double estimate = lo + fraction * (hi - lo);
      return std::min(estimate, static_cast<double>(max()));
    }
    seen += in_bucket;
  }
  return static_cast<double>(max());
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::bucket_counts()
    const noexcept {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::vector<std::string> MetricsSnapshot::subsystems() const {
  std::vector<std::string> out;
  const auto add = [&](std::string_view name) {
    const std::string_view prefix = stage_subsystem(name);
    for (const auto& existing : out) {
      if (existing == prefix) return;
    }
    out.emplace_back(prefix);
  };
  for (const auto& c : counters) add(c.name);
  for (const auto& g : gauges) add(g.name);
  for (const auto& h : histograms) add(h.name);
  std::sort(out.begin(), out.end());
  return out;
}

void MetricsSnapshot::write_text(std::ostream& out) const {
  for (const auto& c : counters) {
    out << "  " << c.name << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    out << "  " << g.name << " " << g.value << " (max " << g.max << ")\n";
  }
  for (const auto& h : histograms) {
    out << "  " << h.name << " count=" << h.count << " sum=" << h.sum
        << " p50=" << h.p50 << " p90=" << h.p90 << " max=" << h.max << "\n";
  }
}

void MetricsSnapshot::write_json(std::ostream& out) const {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, c.name);
    out << ":" << c.value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, g.name);
    out << ":{\"value\":" << g.value << ",\"max\":" << g.max << "}";
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, h.name);
    out << ":{\"count\":" << h.count << ",\"sum\":" << h.sum
        << ",\"p50\":" << h.p50 << ",\"p90\":" << h.p90
        << ",\"p99\":" << h.p99 << ",\"max\":" << h.max;
    out << ",\"p50_est\":";
    write_json_double(out, h.p50_est);
    out << ",\"p90_est\":";
    write_json_double(out, h.p90_est);
    out << ",\"p99_est\":";
    write_json_double(out, h.p99_est);
    out << ",\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out << ",";
      out << h.buckets[b];
    }
    out << "]}";
  }
  out << "}}";
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value(), g->max_value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramEntry entry{name,
                                          h->count(),
                                          h->sum(),
                                          h->max(),
                                          h->quantile(0.50),
                                          h->quantile(0.90),
                                          h->quantile(0.99),
                                          h->estimate_quantile(0.50),
                                          h->estimate_quantile(0.90),
                                          h->estimate_quantile(0.99),
                                          {}};
    const auto buckets = h->bucket_counts();
    std::size_t last = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] != 0) last = b + 1;
    }
    entry.buckets.assign(buckets.begin(), buckets.begin() + last);
    snap.histograms.push_back(std::move(entry));
  }
  return snap;  // maps iterate sorted, so entries are sorted by name
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* const instance = new MetricsRegistry();
  return *instance;
}

}  // namespace cwgl::obs
