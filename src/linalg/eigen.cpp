#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace cwgl::linalg {

namespace {

// Both stages keep the orthogonal transform V transposed (`vt` = V^T), so
// each of their O(n^3) inner loops walks a row instead of striding down a
// column. Otherwise the arithmetic is EISPACK's, step for step.

/// Householder reduction to tridiagonal form (tred2). On entry `vt` holds
/// the matrix; only its upper triangle vt(j, k), k >= j, is read. On exit
/// `vt` holds V^T, `d` the diagonal and `e` the subdiagonal in e[1..n-1].
void tridiagonalize(Matrix& vt, std::vector<double>& d,
                    std::vector<double>& e) {
  const std::size_t n = vt.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = vt(j, n - 1);

  for (std::size_t i = n - 1; i > 0; --i) {
    // Scale to avoid under/overflow.
    double scale = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = vt(j, i - 1);
        vt(j, i) = 0.0;
        vt(i, j) = 0.0;
      }
      d[i] = 0.0;
      continue;
    }

    // Generate the Householder vector.
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) {
      d[k] /= scale;
      h += d[k] * d[k];
    }
    double f = d[i - 1];
    double g = std::sqrt(h);
    if (f > 0) g = -g;
    e[i] = scale * g;
    h -= f * g;
    d[i - 1] = f - g;
    for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

    // Apply the similarity transform to the remaining columns.
    for (std::size_t j = 0; j < i; ++j) {
      f = d[j];
      vt(i, j) = f;
      const auto row = vt.row(j);
      g = e[j] + row[j] * f;
      for (std::size_t k = j + 1; k < i; ++k) {
        g += row[k] * d[k];
        e[k] += row[k] * f;
      }
      e[j] = g;
    }
    f = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      e[j] /= h;
      f += e[j] * d[j];
    }
    const double hh = f / (h + h);
    for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
    for (std::size_t j = 0; j < i; ++j) {
      f = d[j];
      g = e[j];
      const auto row = vt.row(j);
      for (std::size_t k = j; k < i; ++k) row[k] -= (f * e[k] + g * d[k]);
      d[j] = row[i - 1];
      row[i] = 0.0;
    }
    d[i] = h;
  }

  // Accumulate the transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    vt(i, n - 1) = vt(i, i);
    vt(i, i) = 1.0;
    const auto householder = vt.row(i + 1);
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = householder[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        const auto row = vt.row(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += householder[k] * row[k];
        for (std::size_t k = 0; k <= i; ++k) row[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) householder[k] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = vt(j, n - 1);
    vt(j, n - 1) = 0.0;
  }
  vt(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize (tql2),
/// rotating the rows of `vt` along; then sorts the eigenvalues ascending,
/// carrying their rows. Row k of `vt` is then the eigenvector of d[k].
void diagonalize(Matrix& vt, std::vector<double>& d, std::vector<double>& e) {
  // EISPACK gives up on an eigenvalue after 30 iterations.
  constexpr int kMaxIterations = 30;
  const std::size_t n = vt.rows();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t l = 0; l < n; ++l) {
    // Find a small subdiagonal element; e[n-1] = 0 ends the search.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && std::abs(e[m]) > eps * tst1) ++m;

    // m == l: d[l] is already an eigenvalue. Otherwise iterate.
    for (int iter = 0; m > l && std::abs(e[l]) > eps * tst1; ++iter) {
      if (iter == kMaxIterations) {
        throw util::Error("symmetric_eigen: eigenvalue " + std::to_string(l) +
                          " needs more than " +
                          std::to_string(kMaxIterations) + " QL iterations");
      }
      // Compute the implicit shift.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      f += h;

      // Implicit QL transformation.
      p = d[m];
      double c = 1.0;
      double c2 = c;
      double c3 = c;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);

        // Accumulate the rotation into rows i and i+1 of V^T.
        const auto lo = vt.row(i);
        const auto hi = vt.row(i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double t = hi[k];
          hi[k] = s * lo[k] + c * t;
          lo[k] = c * lo[k] - s * t;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += f;
    e[l] = 0.0;
  }

  // Selection sort, ascending; each swap carries the eigenvector rows.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    double p = d[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      const auto a = vt.row(i);
      std::swap_ranges(a.begin(), a.end(), vt.row(k).begin());
    }
  }
}

}  // namespace

EigenDecomposition symmetric_eigen(const Matrix& a) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (!std::isfinite(a(r, c))) {
        throw util::InvalidArgument(
            "symmetric_eigen: non-finite entry at (" + std::to_string(r) +
            ", " + std::to_string(c) + ")");
      }
    }
  }
  if (!a.is_symmetric(1e-9)) {
    throw util::InvalidArgument("symmetric_eigen: matrix is not symmetric");
  }
  const std::size_t n = a.rows();
  EigenDecomposition out;
  if (n == 0) return out;

  // V^T starts as A^T, so the upper triangle tred2 reads is A's lower one.
  Matrix vt = a.transposed();
  std::vector<double> d(n);
  std::vector<double> e(n);
  tridiagonalize(vt, d, e);
  diagonalize(vt, d, e);

  out.values = std::move(d);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto v = vt.row(k);
    std::size_t lead = 0;
    for (std::size_t r = 1; r < n; ++r) {
      if (std::abs(v[r]) > std::abs(v[lead])) lead = r;
    }
    const double sign = v[lead] < 0.0 ? -1.0 : 1.0;
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = sign * v[r];
  }
  return out;
}

bool is_positive_semidefinite(const Matrix& a, double tol) {
  if (a.rows() == 0) return true;
  const auto eig = symmetric_eigen(a);
  const double largest = std::max(1.0, std::abs(eig.values.back()));
  return eig.values.front() >= -tol * largest;
}

}  // namespace cwgl::linalg
