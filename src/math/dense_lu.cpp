#include "math/dense_lu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fdtdmm {

template <class T>
void DenseLu<T>::load(const Matrix& re, const Matrix* im) {
  if (re.rows() != re.cols() ||
      (im != nullptr && (im->rows() != re.rows() || im->cols() != re.cols())))
    throw std::invalid_argument("DenseLu::factor: matrix must be square");
  n_ = re.rows();
  if constexpr (kIsComplex<T>) {
    lu_.resize(n_ * n_);
    for (std::size_t i = 0; i < n_ * n_; ++i) lu_[i] = T(re.data()[i], im->data()[i]);
  } else {
    lu_.assign(re.data(), re.data() + n_ * n_);  // reuses storage at an unchanged dim
  }
  try {
    eliminate();
  } catch (...) {
    n_ = 0;
    lu_.clear();
    perm_.clear();
    factored_ = false;
    throw;
  }
}

template <class T>
void DenseLu<T>::eliminate() {
  const std::size_t n = n_;
  T* const a = lu_.data();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  factored_ = false;

  // Health probes (minAbsPivot/pivotGrowth): max|A| is scanned before
  // elimination, the pivot minimum rides the pivot search, and max|U| is
  // scanned afterwards — O(n^2) against the O(n^3) elimination.
  max_abs_a_ = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) max_abs_a_ = std::max(max_abs_a_, std::abs(a[i]));
  min_abs_pivot_ = 0.0;
  max_abs_u_ = 0.0;

  // Partial pivoting: `pivot` is the first row holding the largest
  // magnitude `best` of column k. Column 0 is searched here, every later
  // column by the previous step's elimination, right after it has updated
  // (or skipped) the row: that entry shares a cache line with the one the
  // elimination just read, so the column is walked once per step, not
  // twice. This loop is most of a nonlinear corner's Newton time.
  std::size_t pivot = 0;
  double best = n > 0 ? std::abs(a[0]) : 0.0;
  for (std::size_t r = 1; r < n; ++r) {
    const double v = std::abs(a[r * n]);
    if (v > best) {
      best = v;
      pivot = r;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (best == 0.0) throw std::runtime_error("DenseLu: singular matrix");
    min_abs_pivot_ = k == 0 ? best : std::min(min_abs_pivot_, best);
    T* const row_k = a + k * n;
    if (pivot != k) {
      std::swap(perm_[k], perm_[pivot]);
      std::swap_ranges(row_k, row_k + n, a + pivot * n);
    }
    const T inv = T(1.0) / row_k[k];
    for (std::size_t r = k + 1; r < n; ++r) {
      T* const row_r = a + r * n;
      const T m = row_r[k] * inv;
      row_r[k] = m;
      if (m != T(0.0)) {
        for (std::size_t c = k + 1; c < n; ++c) row_r[c] -= m * row_k[c];
      }
      const double v = std::abs(row_r[k + 1]);  // pivot search of column k + 1
      if (r == k + 1 || v > best) {
        best = v;
        pivot = r;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) max_abs_u_ = std::max(max_abs_u_, std::abs(a[i * n + j]));
  factored_ = true;
}

template <class T>
typename DenseLu<T>::Vec DenseLu<T>::solve(const Vec& b) const {
  Vec x;
  solve(b, x);
  return x;
}

template <class T>
void DenseLu<T>::solve(const Vec& b, Vec& x) const {
  if (!factored_) throw std::logic_error("DenseLu::solve: not factored");
  const std::size_t n = n_;
  if (b.size() != n) throw std::invalid_argument("DenseLu::solve: size mismatch");
  const T* const a = lu_.data();
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower triangular).
  for (std::size_t i = 1; i < n; ++i) {
    const T* const row = a + i * n;
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    const T* const row = a + i * n;
    T acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= row[j] * x[j];
    x[i] = acc / row[i];
  }
}

template <class T>
void DenseLu<T>::solveTranspose(const Vec& b, Vec& x) const {
  if (!factored_) throw std::logic_error("DenseLu::solveTranspose: not factored");
  const std::size_t n = n_;
  if (b.size() != n) throw std::invalid_argument("DenseLu::solveTranspose: size mismatch");
  const T* const a = lu_.data();
  // A = P^-1 L U, so A^T x = b factors as U^T w = b, L^T v = w,
  // x = P^-1 v (x[perm[i]] = v[i]: solve() applies P on entry, the
  // transpose solve its inverse on exit).
  x.resize(n);
  Vec v(n);
  // U^T is lower triangular with the U diagonal: forward substitution.
  for (std::size_t i = 0; i < n; ++i) {
    T acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= a[j * n + i] * v[j];
    v[i] = acc / a[i * n + i];
  }
  // L^T is unit upper triangular: backward substitution.
  for (std::size_t i = n; i-- > 0;) {
    T acc = v[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[j * n + i] * v[j];
    v[i] = acc;
  }
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = v[i];
}

template <class T>
double DenseLu<T>::absDeterminant() const {
  double d = 1.0;
  for (std::size_t i = 0; i < n_; ++i) d *= std::abs(lu_[i * n_ + i]);
  return d;
}

template class DenseLu<double>;
template class DenseLu<Complex>;

}  // namespace fdtdmm
