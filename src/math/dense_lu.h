#pragma once
/// \file dense_lu.h
/// Dense LU with partial pivoting, templated on the scalar type.
///
/// DenseLu<double> factors the transient MNA Jacobians (the engine keeps a
/// base and a working factorization alive across a run and re-factors in
/// place); DenseLu<Complex> factors the AC system A(omega) = G + j*omega*B,
/// loaded from the (re, im) Matrix pair it is assembled into (see
/// circuit/elements.h AcStampSystem). Elimination, solve and transpose
/// solve are one implementation; only the load step differs per scalar.
/// Both instantiations live in dense_lu.cpp.

#include <complex>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "math/matrix.h"

namespace fdtdmm {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

/// True for the complex scalar of the AC path, false for double.
template <class T>
inline constexpr bool kIsComplex = std::is_same_v<T, Complex>;

/// LU factorization with partial pivoting of a square matrix. Factor once,
/// solve many right-hand sides; re-factoring at an unchanged dimension and
/// the two-argument solve reuse storage and perform no allocations.
template <class T>
class DenseLu {
 public:
  using Vec = std::vector<T>;

  /// Creates an empty factorization; call factor() before solve().
  DenseLu() = default;

  /// Factors A (real only); same errors as factor().
  template <class U = T, std::enable_if_t<!kIsComplex<U>, int> = 0>
  explicit DenseLu(const Matrix& a) {
    load(a, nullptr);
  }

  /// Factors A (real). \throws std::invalid_argument if A is not square,
  /// std::runtime_error if A is numerically singular; on that error the
  /// factorization is left empty.
  template <class U = T, std::enable_if_t<!kIsComplex<U>, int> = 0>
  void factor(const Matrix& a) {
    load(a, nullptr);
  }

  /// Factors A = re + j*im (complex); both square, same dimension. Same
  /// errors as the real factor().
  template <class U = T, std::enable_if_t<kIsComplex<U>, int> = 0>
  void factor(const Matrix& re, const Matrix& im) {
    load(re, &im);
  }

  /// True once a factor() has succeeded.
  bool factored() const { return factored_; }
  std::size_t dim() const { return n_; }

  /// Solves A x = b. \throws std::invalid_argument on size mismatch,
  /// std::logic_error if nothing has been factored yet.
  Vec solve(const Vec& b) const;

  /// Allocation-free variant: solves A x = b into `x` (resized; may not
  /// alias `b`). Same errors as solve(b).
  void solve(const Vec& b, Vec& x) const;

  /// Solves A^T x = b into `x` (resized; may not alias `b`; plain, not
  /// conjugate, transpose): U^T forward, L^T backward, then the inverse
  /// row permutation. Const with call-local scratch, so any number of
  /// threads may solve one shared factorization — the Hager condition
  /// estimator (obs/health.h) runs it on the cached base LU.
  void solveTranspose(const Vec& b, Vec& x) const;

  /// |det(A)|: product of |U_ii|.
  double absDeterminant() const;

  /// Numerical-health probes of the last successful factorization
  /// (obs/health.h), magnitudes by std::abs: the smallest pivot selected
  /// by partial pivoting, and the element growth max|U| / max|A| (close to
  /// 1 for well-behaved systems). Both 0 before the first factor().
  double minAbsPivot() const { return min_abs_pivot_; }
  double pivotGrowth() const {
    return max_abs_a_ > 0.0 ? max_abs_u_ / max_abs_a_ : 0.0;
  }

 private:
  /// Copies A (= re, or re + j*im) into lu_ and eliminates.
  void load(const Matrix& re, const Matrix* im);
  void eliminate();

  std::size_t n_ = 0;
  Vec lu_;  ///< row-major: unit-lower L below the diagonal, U on and above
  std::vector<std::size_t> perm_;  ///< row i of PA is row perm_[i] of A
  bool factored_ = false;
  double min_abs_pivot_ = 0.0;
  double max_abs_a_ = 0.0;
  double max_abs_u_ = 0.0;
};

extern template class DenseLu<double>;
extern template class DenseLu<Complex>;

}  // namespace fdtdmm
