#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace cwgl::linalg {

/// Full eigendecomposition of a symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues in ascending order.
  std::vector<double> values;
  /// Column k of `vectors` is the unit eigenvector for values[k], signed so
  /// that its largest-magnitude component (the lowest index on ties) is
  /// positive.
  Matrix vectors;
};

/// Dense symmetric eigensolver: Householder reduction to tridiagonal form,
/// then the implicit-shift QL algorithm with accumulated transforms
/// (EISPACK tred2/tql2, Bowdler, Martin, Reinsch & Wilkinson, in the
/// public-domain JAMA form). O(n^3) with a small constant and no tuning
/// parameter; every transform is orthogonal. Deterministic: repeat calls
/// return bit-identical results.
///
/// Throws InvalidArgument if `a` is not square, has a non-finite entry (the
/// message names the first one in row-major order), or is not symmetric
/// within 1e-9; throws util::Error if an eigenvalue needs more than 30 QL
/// iterations (EISPACK's bound).
EigenDecomposition symmetric_eigen(const Matrix& a);

/// True if symmetric `a` is positive semi-definite within `tol`
/// (smallest eigenvalue >= -tol * max(1, |largest eigenvalue|)). Throws
/// what symmetric_eigen throws.
bool is_positive_semidefinite(const Matrix& a, double tol = 1e-8);

}  // namespace cwgl::linalg
