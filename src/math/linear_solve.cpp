#include "math/linear_solve.h"

#include <cmath>
#include <stdexcept>

#include "math/dense_lu.h"

namespace fdtdmm {

Vector solveLinear(const Matrix& a, const Vector& b) {
  return DenseLu<double>(a).solve(b);
}

Vector solveLeastSquares(const Matrix& a, const Vector& b, double ridge) {
  if (a.rows() != b.size()) throw std::invalid_argument("solveLeastSquares: size mismatch");
  if (a.rows() < a.cols()) throw std::invalid_argument("solveLeastSquares: underdetermined");

  // Optionally augment with sqrt(ridge)*I rows for Tikhonov regularization.
  const std::size_t m0 = a.rows();
  const std::size_t n = a.cols();
  const std::size_t m = ridge > 0.0 ? m0 + n : m0;
  Matrix r(m, n);
  Vector rhs(m, 0.0);
  for (std::size_t i = 0; i < m0; ++i) {
    for (std::size_t j = 0; j < n; ++j) r(i, j) = a(i, j);
    rhs[i] = b[i];
  }
  if (ridge > 0.0) {
    const double s = std::sqrt(ridge);
    for (std::size_t j = 0; j < n; ++j) r(m0 + j, j) = s;
  }

  // Householder QR applied in place; rhs transformed alongside.
  for (std::size_t k = 0; k < n; ++k) {
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) alpha += r(i, k) * r(i, k);
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) throw std::runtime_error("solveLeastSquares: rank-deficient matrix");
    if (r(k, k) > 0.0) alpha = -alpha;

    // Householder vector v stored in column k below the diagonal.
    Vector v(m - k);
    v[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    double vnorm2 = 0.0;
    for (double x : v) vnorm2 += x * x;
    if (vnorm2 == 0.0) throw std::runtime_error("solveLeastSquares: rank-deficient matrix");

    r(k, k) = alpha;
    for (std::size_t i = k + 1; i < m; ++i) r(i, k) = 0.0;

    for (std::size_t c = k + 1; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i)
        proj += v[i - k] * (i == k ? r(k, c) : r(i, c));
      const double f = 2.0 * proj / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, c) -= f * v[i - k];
    }
    double projb = 0.0;
    for (std::size_t i = k; i < m; ++i) projb += v[i - k] * rhs[i];
    const double fb = 2.0 * projb / vnorm2;
    for (std::size_t i = k; i < m; ++i) rhs[i] -= fb * v[i - k];
  }

  // Back substitution on the n x n upper-triangular block.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = rhs[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= r(ii, j) * x[j];
    if (r(ii, ii) == 0.0) throw std::runtime_error("solveLeastSquares: rank-deficient matrix");
    x[ii] = acc / r(ii, ii);
  }
  return x;
}

}  // namespace fdtdmm
