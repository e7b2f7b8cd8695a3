#pragma once
/// \file band_lu.h
/// Direct solver for CSR systems: a fill-reducing reverse Cuthill-McKee
/// ordering followed by banded LU with partial pivoting (LAPACK gbtrf-style
/// band storage with kl spare superdiagonals for pivot growth), templated
/// on the scalar type. BandLu<double> serves the sparse transient MNA path;
/// BandLu<Complex> the AC path, loaded from the (re, im) CSR pair the AC
/// system is assembled into (circuit/elements.h AcStampSystem). Analysis,
/// elimination and all solves are one implementation; only the load step
/// differs per scalar. Both instantiations live in band_lu.cpp.
///
/// Why banded + RCM rather than a general sparse LU: segmented RLGC board
/// models produce chain-structured graphs whose RCM-permuted matrices have
/// tiny bandwidth (a handful of diagonals regardless of segment count), so
/// factorization is O(n b^2) and each substitution O(n b) — versus O(n^3) /
/// O(n^2) dense. Partial pivoting within the band is exactly as robust as
/// dense partial pivoting here, because every structurally possible pivot
/// candidate of column j lies within kl rows of the diagonal by the band's
/// definition. On a pathological (dense-ish) pattern the band degrades
/// towards n and the solver remains correct, merely not faster.
///
/// The symbolic stage (ordering + band extents + storage) is cached by the
/// matrices' pattern-version stamps: refactoring with an unchanged pattern
/// reuses it and performs no allocations. It depends on the pattern only,
/// so an ordering published by one instance can seed another
/// (factorWithOrder): the corners of one structure class, and every
/// frequency point of an AC sweep, share one RCM analysis.

#include <cstdint>
#include <vector>

#include "math/dense_lu.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {

/// Reverse Cuthill-McKee ordering of a (structurally symmetrized) CSR
/// pattern. Returns `order` with order[new_index] = old_index; handles
/// disconnected components (each seeded at a minimum-degree vertex).
std::vector<std::size_t> reverseCuthillMcKee(const SparseMatrix& a);

/// LU factorization of a finalized SparseMatrix (or, complex, of a CSR pair
/// sharing one pattern). Factor once, solve many right-hand sides;
/// re-factoring with the same pattern reuses all storage.
template <class T>
class BandLu {
 public:
  using Vec = std::vector<T>;

  BandLu() = default;

  /// Factors A (real). Re-runs the symbolic analysis only when A's pattern
  /// version differs from the last analyzed one. \throws
  /// std::invalid_argument if A is not finalized or has dimension 0,
  /// std::runtime_error if A is numerically singular (the factorization
  /// is left empty).
  template <class U = T, std::enable_if_t<!kIsComplex<U>, int> = 0>
  void factor(const SparseMatrix& a) {
    load(a, nullptr, nullptr);
  }

  /// Factors A = re + j*im (complex). Both must be finalized with the SAME
  /// pattern (equal rowPtr/colIdx; AcStampSystem writes both parts on
  /// every add, which guarantees it). Same errors as the real factor(),
  /// plus std::invalid_argument when the patterns differ.
  template <class U = T, std::enable_if_t<kIsComplex<U>, int> = 0>
  void factor(const SparseMatrix& re, const SparseMatrix& im) {
    load(re, &im, nullptr);
  }

  /// Factors like factor(), but seeds the symbolic stage with a
  /// precomputed ordering (order[new] = old) instead of recomputing RCM —
  /// the symbolic-sharing hook: an ordering computed from an identical
  /// pattern yields a bit-identical factorization. \throws
  /// std::invalid_argument if `order` is not dim()-sized, on top of
  /// factor()'s errors. An ordering from a *different* pattern is still a
  /// valid permutation (the result stays correct, merely not band-optimal),
  /// but then the sharing key was wrong.
  template <class U = T, std::enable_if_t<!kIsComplex<U>, int> = 0>
  void factorWithOrder(const SparseMatrix& a, const std::vector<std::size_t>& order) {
    load(a, nullptr, &order);
  }
  template <class U = T, std::enable_if_t<kIsComplex<U>, int> = 0>
  void factorWithOrder(const SparseMatrix& re, const SparseMatrix& im,
                       const std::vector<std::size_t>& order) {
    load(re, &im, &order);
  }

  /// Ordering of the last symbolic analysis (order[new] = old; empty until
  /// the first factor). Publishable to other instances via factorWithOrder.
  const std::vector<std::size_t>& ordering() const { return order_; }

  bool factored() const { return factored_; }
  std::size_t dim() const { return n_; }

  /// Band extents of the RCM-permuted matrix (valid after factor()).
  std::size_t lowerBandwidth() const { return kl_; }
  std::size_t upperBandwidth() const { return ku_; }

  /// Solves A x = b into x (resized; must not alias b). Allocation-free
  /// after the first call at a given dimension. NOT safe for concurrent
  /// calls on one instance (uses an internal scratch vector); concurrent
  /// sharers use the caller-workspace overload below.
  /// \throws std::invalid_argument on size mismatch, std::logic_error if
  ///         nothing has been factored.
  void solve(const Vec& b, Vec& x) const;

  /// Thread-safe solve into caller storage: identical numerics to
  /// solve(b, x), but the permutation/substitution scratch lives in `work`
  /// (resized; must alias neither b nor x), so any number of threads can
  /// solve against one shared factorization concurrently — the enabling
  /// detail of cross-run numeric-base sharing.
  void solve(const Vec& b, Vec& x, Vec& work) const;

  /// Convenience allocating overload.
  Vec solve(const Vec& b) const;

  /// Solves A^T x = b into x (plain, not conjugate, transpose): the banded
  /// factorization applied backwards (U^T forward, then the L columns and
  /// row interchanges in reverse — the gbtrs TRANS='T' order), wrapped in
  /// the same RCM permutation as solve() (transposing commutes with the
  /// symmetric reordering). Used by the Hager condition estimator
  /// (obs/health.h) against already-cached factorizations. Same
  /// aliasing/threading contract as solve().
  void solveTranspose(const Vec& b, Vec& x) const;
  void solveTranspose(const Vec& b, Vec& x, Vec& work) const;

  /// Numerical-health probes of the last successful factorization (see
  /// DenseLu): smallest selected pivot magnitude and band element growth
  /// max|U| / max|A|. Both 0 before the first factor().
  double minAbsPivot() const { return min_abs_pivot_; }
  double pivotGrowth() const {
    return max_abs_a_ > 0.0 ? max_abs_u_ / max_abs_a_ : 0.0;
  }

 private:
  /// Validates A (= re, or re + j*im), re-analyzes when the pattern or the
  /// seeded ordering changed, scatters A into the band and eliminates.
  void load(const SparseMatrix& re, const SparseMatrix* im,
            const std::vector<std::size_t>* order);
  void analyze(const SparseMatrix& a, std::vector<std::size_t> order);
  void eliminate();

  T& at(std::size_t i, std::size_t j) { return ab_[j * ldab_ + (i + shift_ - j)]; }
  T atc(std::size_t i, std::size_t j) const { return ab_[j * ldab_ + (i + shift_ - j)]; }

  std::size_t n_ = 0;
  std::size_t kl_ = 0, ku_ = 0;
  std::size_t ldab_ = 0;   ///< band-storage column height = 2*kl + ku + 1
  std::size_t shift_ = 0;  ///< row offset in a storage column = kl + ku
  std::uint64_t analyzed_version_ = 0;     ///< pattern version of A (re)
  std::uint64_t analyzed_im_version_ = 0;  ///< of im; 0 for real
  std::vector<std::size_t> order_;  ///< order_[new] = old
  std::vector<std::size_t> pos_;    ///< pos_[old] = new
  Vec ab_;                          ///< band storage, column-major
  std::vector<std::size_t> piv_;
  mutable Vec work_;
  bool factored_ = false;
  double min_abs_pivot_ = 0.0;
  double max_abs_a_ = 0.0;
  double max_abs_u_ = 0.0;
};

extern template class BandLu<double>;
extern template class BandLu<Complex>;

}  // namespace fdtdmm
