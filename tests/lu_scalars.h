#pragma once
// Scalar-generic helpers for the typed LU suites (test_dense_lu,
// test_band_lu): a test matrix is kept as a real/imaginary pair of the
// assembly targets, the way the AC path builds it, and a real
// instantiation simply ignores the imaginary half.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "math/dense_lu.h"
#include "math/rng.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {
namespace lutest {

using Scalars = ::testing::Types<double, Complex>;

/// re + j*im as a T (the imaginary part is dropped for double).
template <class T>
T scalar(double re, double im) {
  if constexpr (kIsComplex<T>) {
    return T(re, im);
  } else {
    return re;
  }
}

/// Factors the pair through the load step of T.
template <class Lu, class M>
void factorPair(Lu& lu, const M& re, const M& im) {
  if constexpr (kIsComplex<typename Lu::Vec::value_type>) {
    lu.factor(re, im);
  } else {
    lu.factor(re);
  }
}

template <class T>
double maxDiff(const std::vector<T>& x, const std::vector<T>& y) {
  double gap = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) gap = std::max(gap, std::abs(x[k] - y[k]));
  return gap;
}

/// max |A x - b| with A = re (+ j*im), or A^T when `transpose`.
template <class T>
double residual(const Matrix& re, const Matrix& im, const std::vector<T>& x,
                const std::vector<T>& b, bool transpose = false) {
  double worst = 0.0;
  for (std::size_t r = 0; r < re.rows(); ++r) {
    T acc = scalar<T>(0.0, 0.0);
    for (std::size_t c = 0; c < re.cols(); ++c) {
      const std::size_t i = transpose ? c : r, j = transpose ? r : c;
      acc += scalar<T>(re(i, j), im(i, j)) * x[c];
    }
    worst = std::max(worst, std::abs(acc - b[r]));
  }
  return worst;
}

/// Solves `rhs` against one shared factorization from four threads at once
/// through `solve(b, x, work)`, each thread with its own workspace, and
/// checks every answer is bit-identical to the serial one.
template <class T, class SolveFn>
void expectConcurrentSolvesBitIdentical(const std::vector<std::vector<T>>& rhs,
                                        const SolveFn& solve) {
  std::vector<std::vector<T>> serial(rhs.size());
  std::vector<T> work;
  for (std::size_t k = 0; k < rhs.size(); ++k) solve(rhs[k], serial[k], work);
  std::vector<std::vector<std::vector<T>>> got(4, std::vector<std::vector<T>>(rhs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      std::vector<T> own_work;
      for (std::size_t k = 0; k < rhs.size(); ++k) solve(rhs[k], got[t][k], own_work);
    });
  for (std::thread& th : threads) th.join();
  for (const auto& answers : got) EXPECT_EQ(answers, serial);
}

/// FNV-1a over raw result bytes: a golden hash changes with any change to
/// the factorization's arithmetic, down to the last bit.
class ByteHash {
 public:
  void add(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= bytes[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  template <class T>
  void add(const std::vector<T>& v) {
    add(v.data(), v.size() * sizeof(T));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// The golden fixtures draw small integers, at least 40% of them zero:
// exact pivot ties and zero multipliers everywhere, the cases where a
// reordered pivot search or elimination skip would show.
inline double tieEntry(Rng& rng) {
  return rng.uniform() < 0.4 ? 0.0 : std::floor(rng.uniform() * 5.0) - 2.0;
}

inline std::vector<double> tieRhs(Rng& rng, std::size_t n) {
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform() - 0.5;
  return b;
}

/// Tridiagonal plus about three entries per row anywhere, integer values;
/// real diagonal entries are +-1, so most draws are nonsingular.
inline void tiePattern(Rng& rng, std::size_t n, SparseMatrix& re, SparseMatrix& im) {
  re.reset(n);
  im.reset(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t d = i > j ? i - j : j - i;
      if (d == 0) {
        re.add(i, j, rng.uniform() < 0.5 ? -1.0 : 1.0);
        im.add(i, j, tieEntry(rng));
      } else if (d == 1 || rng.uniform() < 3.0 / static_cast<double>(n)) {
        re.add(i, j, tieEntry(rng));
        im.add(i, j, tieEntry(rng));
      }
    }
  re.finalize();
  im.finalize();
}

}  // namespace lutest
}  // namespace fdtdmm
