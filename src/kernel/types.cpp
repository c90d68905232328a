#include "kernel/types.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace cwgl::kernel {

namespace {

using Item = std::pair<int, double>;

/// First index in [begin, end) with v[idx].first >= key, found by galloping:
/// exponential probe from `begin` (cheap when the answer is nearby, which it
/// is for intersections — ids only move forward), then binary search inside
/// the bracketing window.
std::size_t gallop_lower_bound(const Item* v, std::size_t begin,
                               std::size_t end, int key) noexcept {
  std::size_t offset = 1;
  std::size_t lo = begin;
  while (begin + offset < end && v[begin + offset].first < key) {
    lo = begin + offset;
    offset <<= 1;
  }
  const std::size_t hi = std::min(begin + offset, end);
  return static_cast<std::size_t>(
      std::lower_bound(v + lo, v + hi, key,
                       [](const Item& item, int k) { return item.first < k; }) -
      v);
}

/// Intersection with |a| << |b|: walk the short side, gallop the long side.
/// Matched products accumulate in ascending-id order — the same order (and
/// therefore the same floating-point sum, bitwise) as the scalar merge.
double dot_galloping(const Item* a, std::size_t na, const Item* b,
                     std::size_t nb) noexcept {
  double acc = 0.0;
  std::size_t ib = 0;
  for (std::size_t ia = 0; ia < na && ib < nb; ++ia) {
    ib = gallop_lower_bound(b, ib, nb, a[ia].first);
    if (ib == nb) break;
    if (b[ib].first == a[ia].first) {
      acc += a[ia].second * b[ib].second;
      ++ib;
    }
  }
  return acc;
}

}  // namespace

double SparseVector::dot(const SparseVector& other) const noexcept {
  const std::size_t na = items.size();
  const std::size_t nb = other.items.size();
  if (na == 0 || nb == 0) return 0.0;
  // Skewed sizes: galloping costs O(short * log long) — a win once the long
  // side is ~an order of magnitude larger (the interned path's head shapes
  // hit this).
  // IEEE multiplication is commutative, so swapping operand roles cannot
  // change a product's bits, and both paths sum matches in ascending-id
  // order: every branch below returns the exact bits of dot_scalar.
  constexpr std::size_t kGallopRatio = 8;
  if (na * kGallopRatio < nb) {
    return dot_galloping(items.data(), na, other.items.data(), nb);
  }
  if (nb * kGallopRatio < na) {
    return dot_galloping(other.items.data(), nb, items.data(), na);
  }
  return dot_scalar(other);
}

double SparseVector::dot_scalar(const SparseVector& other) const noexcept {
  double acc = 0.0;
  auto a = items.begin();
  auto b = other.items.begin();
  while (a != items.end() && b != other.items.end()) {
    if (a->first < b->first) {
      ++a;
    } else if (b->first < a->first) {
      ++b;
    } else {
      acc += a->second * b->second;
      ++a;
      ++b;
    }
  }
  return acc;
}

double SparseVector::norm() const noexcept {
  double acc = 0.0;
  for (const auto& [id, v] : items) acc += v * v;
  return std::sqrt(acc);
}

SparseVector SparseVector::from_counts(
    const std::unordered_map<int, double>& counts) {
  SparseVector out;
  out.items.assign(counts.begin(), counts.end());
  std::sort(out.items.begin(), out.items.end());
  return out;
}

int SignatureDictionary::intern(std::string_view key) {
  static obs::Counter& interned =
      obs::MetricsRegistry::global().counter("kernel.wl.labels_interned");
  // Transparent hash/equal: the hit path (every signature after its first
  // sighting, i.e. almost all of featurization) allocates nothing.
  const auto it = map_.find(key);
  if (it != map_.end()) return it->second;
  const int id = static_cast<int>(map_.size());
  map_.emplace(std::string(key), id);
  interned.add();
  return id;
}

std::optional<int> SignatureDictionary::find(std::string_view key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SignatureDictionary::signatures() const {
  std::vector<std::string> out(map_.size());
  for (const auto& [signature, id] : map_) {
    out[static_cast<std::size_t>(id)] = signature;
  }
  return out;
}

double kernel_value(Featurizer& f, const LabeledGraph& a, const LabeledGraph& b) {
  return f.featurize(a).dot(f.featurize(b));
}

double normalized_kernel_value(Featurizer& f, const LabeledGraph& a,
                               const LabeledGraph& b) {
  const SparseVector va = f.featurize(a);
  const SparseVector vb = f.featurize(b);
  const double denom = va.norm() * vb.norm();
  return denom == 0.0 ? 0.0 : va.dot(vb) / denom;
}

}  // namespace cwgl::kernel
