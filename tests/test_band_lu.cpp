// Unit tests of BandLu<T> (math/band_lu.h) and the RCM ordering. The typed
// suite runs every behaviour on both instantiations, double (sparse
// transient MNA) and Complex (AC), against DenseLu<T> as the reference;
// the tail pins what only one scalar offers.
#include "math/band_lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "lu_scalars.h"
#include "math/rng.h"

namespace fdtdmm {
namespace {

using lutest::factorPair;
using lutest::maxDiff;
using lutest::scalar;

template <class T>
class BandLuTyped : public ::testing::Test {};
TYPED_TEST_SUITE(BandLuTyped, lutest::Scalars);

// A CSR pair sharing one pattern, the AcStampSystem invariant: every add
// writes both halves. The real instantiation reads `re` only.
struct CsrPair {
  SparseMatrix re, im;
  explicit CsrPair(std::size_t n) : re(n), im(n) {}
  void add(std::size_t r, std::size_t c, double vr, double vi = 0.0) {
    re.add(r, c, vr);
    im.add(r, c, vi);
  }
  void finalize() {
    re.finalize();
    im.finalize();
  }
};

template <class T>
void factorWithOrder(BandLu<T>& lu, const CsrPair& a, const std::vector<std::size_t>& order) {
  if constexpr (kIsComplex<T>) {
    lu.factorWithOrder(a.re, a.im, order);
  } else {
    lu.factorWithOrder(a.re, order);
  }
}

// Max |x_band - x_dense| on A x = b.
template <class T>
double solveGap(const CsrPair& a, const std::vector<T>& b) {
  BandLu<T> slu;
  factorPair(slu, a.re, a.im);
  DenseLu<T> dense;
  factorPair(dense, a.re.toDense(), a.im.toDense());
  return maxDiff(slu.solve(b), dense.solve(b));
}

CsrPair tridiagonal(std::size_t n) {
  CsrPair a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0 + 0.1 * static_cast<double>(i), 0.7);
    if (i > 0) a.add(i, i - 1, -1.0, 0.2);
    if (i + 1 < n) a.add(i, i + 1, -1.5, -0.3);
  }
  a.finalize();
  return a;
}

// MNA shape: conductance block plus a voltage-source branch row/column
// with a structurally zero diagonal — unpivoted elimination would die
// here; partial pivoting inside the band must not. Nodes 0..2 in a
// resistive chain, branch unknown 3 forcing node 0.
CsrPair mnaWithBranchRow() {
  CsrPair a(4);
  a.add(0, 0, 1.0 / 10.0, 0.05);
  a.add(0, 1, -1.0 / 10.0);
  a.add(1, 0, -1.0 / 10.0);
  a.add(1, 1, 1.0 / 10.0 + 1.0 / 20.0, -0.04);
  a.add(1, 2, -1.0 / 20.0);
  a.add(2, 1, -1.0 / 20.0);
  a.add(2, 2, 1.0 / 20.0 + 1.0 / 50.0);
  a.add(0, 3, 1.0);  // branch current into node 0
  a.add(3, 0, 1.0);  // branch row: v0 = vs
  a.finalize();
  return a;
}

CsrPair randomSparse(Rng& rng, std::size_t n) {
  CsrPair a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 5.0 + rng.uniform(), rng.uniform() - 0.5);  // diagonally dominant-ish
    for (int k = 0; k < 3; ++k) {
      const auto j = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
      if (j < n && j != i) a.add(i, j, rng.uniform() - 0.5, rng.uniform() - 0.5);
    }
  }
  a.finalize();
  return a;
}

template <class T>
std::vector<T> wave(std::size_t n) {
  std::vector<T> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = scalar<T>(std::sin(static_cast<double>(i)), std::cos(static_cast<double>(i)));
  return b;
}

TYPED_TEST(BandLuTyped, MatchesDenseOnTridiagonalSystem) {
  using T = TypeParam;
  EXPECT_LT(solveGap<T>(tridiagonal(50), wave<T>(50)), 1e-12);
}

TYPED_TEST(BandLuTyped, MatchesDenseOnMnaLikeSystemWithZeroDiagonal) {
  using T = TypeParam;
  const CsrPair a = mnaWithBranchRow();
  ASSERT_DOUBLE_EQ(a.re.at(3, 3), 0.0);
  const std::vector<T> b = {scalar<T>(0.0, 0.0), scalar<T>(0.0, 0.0),
                            scalar<T>(0.0, 0.0), scalar<T>(5.0, 0.0)};
  BandLu<T> slu;
  factorPair(slu, a.re, a.im);
  std::vector<T> x;
  slu.solve(b, x);
  EXPECT_LT(std::abs(x[0] - scalar<T>(5.0, 0.0)), 1e-12);  // forced node
  EXPECT_LT(solveGap(a, b), 1e-12);
}

TYPED_TEST(BandLuTyped, MatchesDenseOnRandomSparseSystem) {
  using T = TypeParam;
  Rng rng(42);
  const CsrPair a = randomSparse(rng, 60);
  std::vector<T> b(60);
  for (T& v : b) v = scalar<T>(rng.uniform() - 0.5, rng.uniform() - 0.5);
  EXPECT_LT(solveGap(a, b), 1e-10);
}

TYPED_TEST(BandLuTyped, TransposeSolveMatchesDense) {
  using T = TypeParam;
  Rng rng(5);
  const CsrPair a = randomSparse(rng, 40);
  const std::vector<T> b = wave<T>(40);
  BandLu<T> slu;
  factorPair(slu, a.re, a.im);
  DenseLu<T> dense;
  factorPair(dense, a.re.toDense(), a.im.toDense());
  std::vector<T> xs, xd;
  slu.solveTranspose(b, xs);
  dense.solveTranspose(b, xd);
  EXPECT_LT(maxDiff(xs, xd), 1e-12);
}

TYPED_TEST(BandLuTyped, RefactorReusesAnalysisAndTracksValueChanges) {
  // clearValues() keeps the pattern version, so the second factor must not
  // re-run the symbolic analysis — and must still be numerically right.
  using T = TypeParam;
  const std::size_t n = 30;
  CsrPair a = tridiagonal(n);
  BandLu<T> slu;
  factorPair(slu, a.re, a.im);
  const std::vector<std::size_t> order = slu.ordering();
  a.re.clearValues();
  a.im.clearValues();
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 6.0, -1.0);
    if (i > 0) a.add(i, i - 1, -2.0);
    if (i + 1 < n) a.add(i, i + 1, -0.5, 0.1);
  }
  factorPair(slu, a.re, a.im);
  EXPECT_EQ(slu.ordering(), order);
  EXPECT_LT(solveGap(a, std::vector<T>(n, scalar<T>(1.0, 0.0))), 1e-12);
}

TYPED_TEST(BandLuTyped, SharedOrderingIsBitIdenticalToPrivateAnalysis) {
  // The symbolic-sharing path: seed the exact ordering a sibling session
  // computed (RCM is a pure function of the pattern).
  using T = TypeParam;
  Rng rng(9);
  const CsrPair a = randomSparse(rng, 40);
  const std::vector<T> b = wave<T>(40);
  BandLu<T> private_order;
  factorPair(private_order, a.re, a.im);
  BandLu<T> shared_order;
  factorWithOrder(shared_order, a, reverseCuthillMcKee(a.re));
  EXPECT_EQ(private_order.solve(b), shared_order.solve(b));
  EXPECT_EQ(private_order.lowerBandwidth(), shared_order.lowerBandwidth());
  EXPECT_EQ(private_order.upperBandwidth(), shared_order.upperBandwidth());

  BandLu<T> bad;
  EXPECT_THROW(factorWithOrder(bad, a, std::vector<std::size_t>(39)),
               std::invalid_argument);
}

TYPED_TEST(BandLuTyped, ConcurrentCallerWorkspaceSolvesAreBitIdentical) {
  // Cross-corner sharing solves one base factorization from many workers,
  // each with its own workspace; so does the transpose solve of the
  // condition estimate.
  using T = TypeParam;
  Rng rng(13);
  const CsrPair a = randomSparse(rng, 50);
  BandLu<T> slu;
  factorPair(slu, a.re, a.im);
  std::vector<std::vector<T>> rhs;
  for (int k = 0; k < 16; ++k) {
    std::vector<T> b(50);
    for (T& v : b) v = scalar<T>(rng.uniform(), rng.uniform());
    rhs.push_back(std::move(b));
  }
  lutest::expectConcurrentSolvesBitIdentical<T>(
      rhs, [&slu](const std::vector<T>& b, std::vector<T>& x, std::vector<T>& work) {
        slu.solve(b, x, work);
      });
  lutest::expectConcurrentSolvesBitIdentical<T>(
      rhs, [&slu](const std::vector<T>& b, std::vector<T>& x, std::vector<T>& work) {
        slu.solveTranspose(b, x, work);
      });
}

TYPED_TEST(BandLuTyped, SingularMatrixThrowsAndLeavesNothingFactored) {
  using T = TypeParam;
  CsrPair a(2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1.0);
  a.finalize();
  BandLu<T> slu;
  EXPECT_THROW(factorPair(slu, a.re, a.im), std::runtime_error);
  EXPECT_FALSE(slu.factored());
  std::vector<T> x;
  EXPECT_THROW(slu.solve(std::vector<T>(2), x), std::logic_error);
  EXPECT_THROW(slu.solveTranspose(std::vector<T>(2), x), std::logic_error);
}

TYPED_TEST(BandLuTyped, ErrorsOnUnfinalizedOrEmptyOrMismatch) {
  using T = TypeParam;
  CsrPair building(2);
  building.add(0, 0, 1.0);
  BandLu<T> slu;
  EXPECT_THROW(factorPair(slu, building.re, building.im), std::invalid_argument);
  CsrPair empty(0);
  empty.finalize();
  EXPECT_THROW(factorPair(slu, empty.re, empty.im), std::invalid_argument);

  CsrPair ok(2);
  ok.add(0, 0, 1.0);
  ok.add(1, 1, 1.0);
  ok.finalize();
  factorPair(slu, ok.re, ok.im);
  std::vector<T> x;
  EXPECT_THROW(slu.solve(std::vector<T>(3), x), std::invalid_argument);
  EXPECT_THROW(slu.solveTranspose(std::vector<T>(3), x), std::invalid_argument);
}

TEST(BandLuGolden, BitIdenticalToTheReferenceKernels) {
  // The hashes were recorded from the pre-template SparseLu and
  // ComplexSparseLu: banded results must not move by a single bit.
  Rng rng(2025);
  lutest::ByteHash real_hash, complex_hash;
  int factored = 0;
  for (std::size_t n : {2, 5, 17, 40, 90})
    for (int trial = 0; trial < 4; ++trial) {
      SparseMatrix re, im;
      lutest::tiePattern(rng, n, re, im);
      const Vector b = lutest::tieRhs(rng, n);
      ComplexVector bc(n);
      for (std::size_t i = 0; i < n; ++i) bc[i] = Complex(b[i], rng.uniform() - 0.5);
      BandLu<double> real_lu;
      try {
        real_lu.factor(re);
        ++factored;
        Vector x, xt;
        real_lu.solve(b, x);
        real_lu.solveTranspose(b, xt);
        real_hash.add(x);
        real_hash.add(xt);
        real_hash.add(real_lu.minAbsPivot());
        real_hash.add(real_lu.pivotGrowth());
      } catch (const std::runtime_error&) {
        real_hash.add(-1.0);  // singular
      }
      BandLu<Complex> complex_lu;
      try {
        complex_lu.factor(re, im);
        ComplexVector x;
        complex_lu.solve(bc, x);
        complex_hash.add(x);
        complex_hash.add(complex_lu.minAbsPivot());
        complex_hash.add(complex_lu.pivotGrowth());
      } catch (const std::runtime_error&) {
        complex_hash.add(-1.0);
      }
    }
  EXPECT_EQ(factored, 18);
  EXPECT_EQ(real_hash.hex(), "17fc5c67711f4e44");
  EXPECT_EQ(complex_hash.hex(), "ce86502eea1c9fd9");
}

TEST(BandLuReal, RcmShrinksLadderWithTrailingBranchesToNarrowBand) {
  // Chain of n nodes where node i also couples to a trailing "branch"
  // unknown n+i (the RLGC inductor layout): natural ordering has bandwidth
  // ~n, RCM must bring it down to a small constant.
  const std::size_t n = 40;
  CsrPair a(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 3.0);
    if (i > 0) {
      a.add(i, i - 1, -1.0);
      a.add(i - 1, i, -1.0);
    }
    const std::size_t br = n + i;
    a.add(br, br, 1.0);
    a.add(br, i, -0.5);
    a.add(i, br, 1.0);
  }
  a.finalize();
  BandLu<double> slu;
  slu.factor(a.re);
  EXPECT_LE(slu.lowerBandwidth(), 4u);
  EXPECT_LE(slu.upperBandwidth(), 4u);
  EXPECT_LT(solveGap(a, Vector(2 * n, 1.0)), 1e-12);
}

TEST(BandLuComplex, RejectsMismatchedPatterns) {
  SparseMatrix re(2), im(2);
  re.add(0, 0, 1.0);
  re.add(1, 1, 1.0);
  re.add(0, 1, 1.0);  // entry the imaginary half does not have
  im.add(0, 0, 1.0);
  im.add(1, 1, 1.0);
  re.finalize();
  im.finalize();
  BandLu<Complex> slu;
  EXPECT_THROW(slu.factor(re, im), std::invalid_argument);
}

TEST(ReverseCuthillMcKee, ProducesAPermutation) {
  SparseMatrix a(5);
  for (std::size_t i = 0; i < 5; ++i) a.add(i, i, 1.0);
  a.add(0, 4, 1.0);
  a.finalize();
  const auto order = reverseCuthillMcKee(a);
  ASSERT_EQ(order.size(), 5u);
  std::vector<bool> seen(5, false);
  for (std::size_t v : order) {
    ASSERT_LT(v, 5u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

}  // namespace
}  // namespace fdtdmm
