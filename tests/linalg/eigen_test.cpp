#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform_real(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// [[2,1,0],[1,2,1],[0,1,2]] with entry (r, c) and its mirror set to `value`.
Matrix poisoned(std::size_t r, std::size_t c, double value) {
  Matrix a = Matrix::from_rows({{2, 1, 0}, {1, 2, 1}, {0, 1, 2}});
  a(r, c) = value;
  a(c, r) = value;
  return a;
}

TEST(SymmetricEigen, DiagonalMatrixTrivial) {
  const Matrix a = Matrix::from_rows({{3, 0}, {0, 1}});
  const auto eig = symmetric_eigen(a);
  ASSERT_EQ(eig.values.size(), 2u);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a = Matrix::from_rows({{2, 1}, {1, 2}});
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
}

TEST(SymmetricEigen, ValuesAscending) {
  const auto eig = symmetric_eigen(random_symmetric(12, 42));
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    EXPECT_LE(eig.values[i - 1], eig.values[i]);
  }
}

TEST(SymmetricEigen, ReconstructionQLambdaQt) {
  const Matrix a = random_symmetric(10, 7);
  const auto eig = symmetric_eigen(a);
  // Rebuild A = Q diag(lambda) Q^T.
  Matrix lambda(10, 10);
  for (std::size_t i = 0; i < 10; ++i) lambda(i, i) = eig.values[i];
  const Matrix rebuilt =
      eig.vectors.multiply(lambda).multiply(eig.vectors.transposed());
  EXPECT_LT(a.max_abs_diff(rebuilt), 1e-9);
}

TEST(SymmetricEigen, VectorsOrthonormal) {
  const auto eig = symmetric_eigen(random_symmetric(9, 13));
  const Matrix qtq = eig.vectors.transposed().multiply(eig.vectors);
  EXPECT_LT(qtq.max_abs_diff(Matrix::identity(9)), 1e-10);
}

TEST(SymmetricEigen, EigenpairsSatisfyAvEqualsLambdaV) {
  const Matrix a = random_symmetric(8, 99);
  const auto eig = symmetric_eigen(a);
  for (std::size_t k = 0; k < 8; ++k) {
    std::vector<double> v(8);
    for (std::size_t i = 0; i < 8; ++i) v[i] = eig.vectors(i, k);
    const auto av = a.multiply(std::span<const double>(v));
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(av[i], eig.values[k] * v[i], 1e-9);
    }
  }
}

TEST(SymmetricEigen, TraceEqualsSumOfEigenvalues) {
  const Matrix a = random_symmetric(15, 5);
  const auto eig = symmetric_eigen(a);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 15; ++i) trace += a(i, i);
  for (double v : eig.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(SymmetricEigen, AsymmetricThrows) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_THROW(symmetric_eigen(a), util::InvalidArgument);
}

TEST(SymmetricEigen, OneByOne) {
  const Matrix a = Matrix::from_rows({{5}});
  const auto eig = symmetric_eigen(a);
  ASSERT_EQ(eig.values.size(), 1u);
  EXPECT_DOUBLE_EQ(eig.values[0], 5.0);
}

TEST(SymmetricEigen, GraphLaplacianHasZeroEigenvalue) {
  // Path graph P3 Laplacian: [[1,-1,0],[-1,2,-1],[0,-1,1]] — eigenvalues
  // 0, 1, 3.
  const Matrix l = Matrix::from_rows({{1, -1, 0}, {-1, 2, -1}, {0, -1, 1}});
  const auto eig = symmetric_eigen(l);
  EXPECT_NEAR(eig.values[0], 0.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-10);
}

/// max |(V^T V - I)_ij|.
double orthogonality_error(const Matrix& v) {
  return v.transposed().multiply(v).max_abs_diff(Matrix::identity(v.cols()));
}

/// ||A V - V diag(values)||_F.
double residual(const Matrix& a, const EigenDecomposition& eig) {
  const Matrix av = a.multiply(eig.vectors);
  double acc = 0.0;
  for (std::size_t r = 0; r < av.rows(); ++r) {
    for (std::size_t c = 0; c < av.cols(); ++c) {
      const double diff = av(r, c) - eig.values[c] * eig.vectors(r, c);
      acc += diff * diff;
    }
  }
  return std::sqrt(acc);
}

TEST(SymmetricEigen, EmptyMatrix) {
  const auto eig = symmetric_eigen(Matrix());
  EXPECT_TRUE(eig.values.empty());
  EXPECT_EQ(eig.vectors.rows(), 0u);
  EXPECT_EQ(eig.vectors.cols(), 0u);
}

TEST(SymmetricEigen, ZeroMatrix) {
  // Every Householder step takes the zero-scale branch.
  const auto eig = symmetric_eigen(Matrix(5, 5));
  EXPECT_EQ(eig.values, std::vector<double>(5, 0.0));
  EXPECT_EQ(eig.vectors, Matrix::identity(5));
}

TEST(SymmetricEigen, UnsortedDiagonalCarriesVectors) {
  const Matrix a = Matrix::from_rows({{3, 0, 0}, {0, 1, 0}, {0, 0, 2}});
  const auto eig = symmetric_eigen(a);
  EXPECT_EQ(eig.values, (std::vector<double>{1, 2, 3}));
  // Column k is the basis vector of the diagonal slot that held values[k].
  EXPECT_EQ(eig.vectors,
            Matrix::from_rows({{0, 0, 1}, {1, 0, 0}, {0, 1, 0}}));
}

TEST(SymmetricEigen, Identity) {
  const Matrix a = Matrix::identity(6);
  const auto eig = symmetric_eigen(a);
  EXPECT_EQ(eig.values, std::vector<double>(6, 1.0));
  EXPECT_LT(orthogonality_error(eig.vectors), 1e-12);
  EXPECT_LT(residual(a, eig), 1e-12);
}

TEST(SymmetricEigen, TripleEigenvalueGetsOrthonormalBasis) {
  // A = H diag(2, 5, 2, -1, 2) H with the reflector H = I - 2uu^T/u^Tu.
  const std::vector<double> u{1, -2, 0.5, 3, 1};
  const std::vector<double> spectrum{2, 5, 2, -1, 2};
  double uu = 0.0;
  for (double x : u) uu += x * x;
  Matrix h = Matrix::identity(5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) h(i, j) -= 2.0 * u[i] * u[j] / uu;
  }
  Matrix lambda(5, 5);
  for (std::size_t i = 0; i < 5; ++i) lambda(i, i) = spectrum[i];
  Matrix a = h.multiply(lambda).multiply(h);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      a(i, j) = a(j, i) = 0.5 * (a(i, j) + a(j, i));
    }
  }
  const auto eig = symmetric_eigen(a);
  const std::vector<double> expected{-1, 2, 2, 2, 5};
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(eig.values[k], expected[k], 1e-12) << k;
  }
  EXPECT_LT(orthogonality_error(eig.vectors), 1e-12);
  EXPECT_LT(residual(a, eig), 1e-12 * a.frobenius_norm());
}

TEST(SymmetricEigen, RankOne) {
  // u u^T has eigenvalue u^T u = 34 on u and 0 on its complement.
  const std::vector<double> u{1, -2, 3, -4, 2};
  Matrix a(5, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) a(i, j) = u[i] * u[j];
  }
  const auto eig = symmetric_eigen(a);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(eig.values[k], 0.0, 1e-12);
  EXPECT_NEAR(eig.values[4], 34.0, 1e-12);
  // Its largest component is u[3] = -4, so the unit vector is -u/|u|.
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(eig.vectors(r, 4), -u[r] / std::sqrt(34.0), 1e-12) << r;
  }
  EXPECT_LT(orthogonality_error(eig.vectors), 1e-12);
}

TEST(SymmetricEigen, PathGraphLaplacianClosedForm) {
  // P_n's Laplacian has eigenvalues 2 - 2cos(pi k / n), k = 0..n-1.
  constexpr std::size_t n = 50;
  Matrix l(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    l(i, i + 1) = l(i + 1, i) = -1.0;
    l(i, i) += 1.0;
    l(i + 1, i + 1) += 1.0;
  }
  const auto eig = symmetric_eigen(l);
  const double pi = std::acos(-1.0);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(eig.values[k],
                2.0 - 2.0 * std::cos(pi * static_cast<double>(k) / n), 1e-12)
        << k;
  }
}

TEST(SymmetricEigen, LargeRandomResidualAndOrthogonality) {
  const Matrix a = random_symmetric(300, 61);
  const auto eig = symmetric_eigen(a);
  EXPECT_LE(residual(a, eig), 1e-10 * a.frobenius_norm());
  EXPECT_LE(orthogonality_error(eig.vectors), 1e-12);
}

TEST(SymmetricEigen, LargestComponentIsPositive) {
  const auto eig = symmetric_eigen(random_symmetric(20, 3));
  for (std::size_t k = 0; k < 20; ++k) {
    std::size_t lead = 0;
    for (std::size_t r = 1; r < 20; ++r) {
      if (std::abs(eig.vectors(r, k)) > std::abs(eig.vectors(lead, k))) {
        lead = r;
      }
    }
    EXPECT_GT(eig.vectors(lead, k), 0.0) << k;
  }
  // On an exact tie in magnitude the lowest index is the positive one.
  for (const double off : {1.0, -1.0}) {
    const auto tie = symmetric_eigen(Matrix::from_rows({{0, off}, {off, 0}}));
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_EQ(std::abs(tie.vectors(0, k)), std::abs(tie.vectors(1, k)));
      EXPECT_GT(tie.vectors(0, k), 0.0) << off << " " << k;
    }
  }
}

TEST(SymmetricEigen, RepeatCallsAreBitIdentical) {
  const Matrix a = random_symmetric(40, 71);
  const auto first = symmetric_eigen(a);
  const auto second = symmetric_eigen(a);
  EXPECT_EQ(first.values, second.values);
  EXPECT_EQ(first.vectors, second.vectors);
}

TEST(SymmetricEigen, SymmetricPermutationKeepsSpectrum) {
  constexpr std::size_t n = 30;
  const Matrix a = random_symmetric(n, 83);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = (7 * i + 3) % n;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = a(perm[i], perm[j]);
  }
  const auto ea = symmetric_eigen(a);
  const auto eb = symmetric_eigen(b);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(ea.values[k], eb.values[k], 1e-12) << k;
    // Simple eigenvalues: the vectors permute too, sign convention included.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(eb.vectors(i, k), ea.vectors(perm[i], k), 1e-10) << k;
    }
  }
}

TEST(SymmetricEigen, NonFiniteEntryThrowsNamingIt) {
  // Matrix::is_symmetric never reads the diagonal, and |inf - inf| > tol is
  // false, so the solver must check finiteness itself.
  for (const auto& [a, where] : {std::pair{poisoned(1, 1, kNaN), "(1, 1)"},
                                 std::pair{poisoned(0, 2, kInf), "(0, 2)"}}) {
    try {
      symmetric_eigen(a);
      ADD_FAILURE() << "no throw for the entry at " << where;
    } catch (const util::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    }
  }
}

TEST(IsPositiveSemidefinite, GramMatrixIsPsd) {
  // B^T B is always PSD.
  const Matrix b = random_symmetric(6, 21);
  const Matrix gram = b.transposed().multiply(b);
  EXPECT_TRUE(is_positive_semidefinite(gram));
}

TEST(IsPositiveSemidefinite, IndefiniteRejected) {
  const Matrix a = Matrix::from_rows({{0, 1}, {1, 0}});  // eigenvalues -1, 1
  EXPECT_FALSE(is_positive_semidefinite(a));
}

TEST(IsPositiveSemidefinite, EmptyMatrixIsPsd) {
  EXPECT_TRUE(is_positive_semidefinite(Matrix()));
}

TEST(IsPositiveSemidefinite, NonFiniteEntryThrows) {
  EXPECT_THROW(is_positive_semidefinite(poisoned(1, 1, kNaN)),
               util::InvalidArgument);
  EXPECT_THROW(is_positive_semidefinite(poisoned(0, 2, kInf)),
               util::InvalidArgument);
}

}  // namespace
}  // namespace cwgl::linalg
