// Unit tests of DenseLu<T> (math/dense_lu.h). The typed suite runs every
// behaviour on both instantiations, double (transient MNA) and Complex
// (AC); the tail pins what only one scalar offers.
#include "math/dense_lu.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "lu_scalars.h"
#include "math/rng.h"

namespace fdtdmm {
namespace {

using lutest::factorPair;
using lutest::maxDiff;
using lutest::residual;
using lutest::scalar;

template <class T>
class DenseLuTyped : public ::testing::Test {};
TYPED_TEST_SUITE(DenseLuTyped, lutest::Scalars);

// Random re/im pair with entries in [-0.5, 0.5).
void randomPair(Rng& rng, std::size_t n, Matrix& re, Matrix& im) {
  re = Matrix(n, n);
  im = Matrix(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      re(r, c) = rng.uniform() - 0.5;
      im(r, c) = rng.uniform() - 0.5;
    }
}

template <class T>
std::vector<T> randomVector(Rng& rng, std::size_t n) {
  std::vector<T> b(n);
  for (T& v : b) v = scalar<T>(rng.uniform(), rng.uniform());
  return b;
}

TYPED_TEST(DenseLuTyped, RandomSystemsSolveToRoundoff) {
  using T = TypeParam;
  // n >= 4 exercises multi-level pivot permutations.
  Rng rng(7);
  for (std::size_t n : {1, 2, 3, 4, 8, 16, 31}) {
    Matrix re, im;
    randomPair(rng, n, re, im);
    const std::vector<T> b = randomVector<T>(rng, n);
    DenseLu<T> lu;
    factorPair(lu, re, im);
    EXPECT_EQ(lu.dim(), n);
    EXPECT_LT(residual(re, im, lu.solve(b), b), 1e-11) << "n=" << n;
  }
}

TYPED_TEST(DenseLuTyped, TransposeSolveSolvesTheTransposedSystem) {
  using T = TypeParam;
  Rng rng(11);
  for (std::size_t n : {1, 3, 8, 24}) {
    Matrix re, im;
    randomPair(rng, n, re, im);
    const std::vector<T> b = randomVector<T>(rng, n);
    DenseLu<T> lu;
    factorPair(lu, re, im);
    std::vector<T> x;
    lu.solveTranspose(b, x);
    EXPECT_LT(residual(re, im, x, b, /*transpose=*/true), 1e-11) << "n=" << n;
  }
}

TYPED_TEST(DenseLuTyped, PivotingHandlesZeroDiagonal) {
  using T = TypeParam;
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  DenseLu<T> lu;
  factorPair(lu, a, Matrix(2, 2));
  const std::vector<T> x = lu.solve({scalar<T>(2.0, 0.0), scalar<T>(3.0, 0.0)});
  EXPECT_LT(std::abs(x[0] - scalar<T>(3.0, 0.0)), 1e-12);
  EXPECT_LT(std::abs(x[1] - scalar<T>(2.0, 0.0)), 1e-12);
  EXPECT_EQ(lu.minAbsPivot(), 1.0);
  EXPECT_EQ(lu.pivotGrowth(), 1.0);
}

TYPED_TEST(DenseLuTyped, RefactorInPlaceAndSolveIntoReusedOutput) {
  // The transient engine's usage pattern: default-construct, factor, solve
  // into a reused output vector, re-factor from a different matrix.
  using T = TypeParam;
  DenseLu<T> lu;
  EXPECT_FALSE(lu.factored());
  EXPECT_THROW(lu.solve(std::vector<T>(1)), std::logic_error);

  factorPair(lu, Matrix{{2.0, 0.0}, {0.0, 4.0}}, Matrix(2, 2));
  EXPECT_TRUE(lu.factored());
  std::vector<T> x;
  lu.solve({scalar<T>(2.0, 0.0), scalar<T>(8.0, 0.0)}, x);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_LT(std::abs(x[0] - scalar<T>(1.0, 0.0)), 1e-12);
  EXPECT_LT(std::abs(x[1] - scalar<T>(2.0, 0.0)), 1e-12);

  factorPair(lu, Matrix{{0.0, 1.0}, {1.0, 0.0}}, Matrix(2, 2));  // needs pivoting
  lu.solve({scalar<T>(2.0, 0.0), scalar<T>(3.0, 0.0)}, x);
  EXPECT_LT(std::abs(x[0] - scalar<T>(3.0, 0.0)), 1e-12);
  EXPECT_LT(std::abs(x[1] - scalar<T>(2.0, 0.0)), 1e-12);
}

TYPED_TEST(DenseLuTyped, ErrorsLeaveAnEmptyFactorization) {
  using T = TypeParam;
  DenseLu<T> lu;
  EXPECT_THROW(factorPair(lu, Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
  factorPair(lu, Matrix{{1.0, 0.0}, {0.0, 1.0}}, Matrix(2, 2));
  EXPECT_THROW(lu.solve(std::vector<T>(3)), std::invalid_argument);
  std::vector<T> x;
  EXPECT_THROW(lu.solveTranspose(std::vector<T>(3), x), std::invalid_argument);
  // A failed re-factor must not leave the object claiming to be factored.
  EXPECT_THROW(factorPair(lu, Matrix{{1.0, 2.0}, {2.0, 4.0}}, Matrix(2, 2)),
               std::runtime_error);
  EXPECT_FALSE(lu.factored());
  EXPECT_EQ(lu.dim(), 0u);
  EXPECT_THROW(lu.solve(std::vector<T>(2)), std::logic_error);
  EXPECT_THROW(lu.solveTranspose(std::vector<T>(2), x), std::logic_error);
}

TYPED_TEST(DenseLuTyped, ConcurrentSolvesOfOneFactorizationAreBitIdentical) {
  // Shared dense base factorizations are solved from many sweep workers.
  using T = TypeParam;
  Rng rng(3);
  const std::size_t n = 20;
  Matrix re, im;
  randomPair(rng, n, re, im);
  DenseLu<T> lu;
  factorPair(lu, re, im);
  std::vector<std::vector<T>> rhs;
  for (int k = 0; k < 16; ++k) rhs.push_back(randomVector<T>(rng, n));
  lutest::expectConcurrentSolvesBitIdentical<T>(
      rhs, [&lu](const std::vector<T>& b, std::vector<T>& x, std::vector<T>&) {
        lu.solve(b, x);
      });
}

TEST(DenseLuReal, BitIdenticalToTheReferenceKernel) {
  // The hash was recorded from the pre-template LuFactorization: the
  // transient path's results must not move by a single bit.
  Rng rng(2024);
  lutest::ByteHash h;
  int factored = 0;
  for (std::size_t n : {1, 2, 3, 5, 8, 13, 21, 34})
    for (int trial = 0; trial < 4; ++trial) {
      Matrix a(n, n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) a(r, c) = lutest::tieEntry(rng);
      const Vector b = lutest::tieRhs(rng, n);
      DenseLu<double> lu;
      try {
        lu.factor(a);
      } catch (const std::runtime_error&) {
        h.add(-1.0);  // singular
        continue;
      }
      ++factored;
      Vector x, xt;
      lu.solve(b, x);
      lu.solveTranspose(b, xt);
      h.add(x);
      h.add(xt);
      h.add(lu.minAbsPivot());
      h.add(lu.pivotGrowth());
    }
  EXPECT_EQ(factored, 23);
  EXPECT_EQ(h.hex(), "b6b807ca91d716aa");
}

TEST(DenseLuReal, FactoringConstructorAndDeterminant) {
  const Matrix a{{4.0, 1.0}, {1.0, 4.0}};
  DenseLu<double> lu(a);
  const Vector x1 = lu.solve({5.0, 5.0});
  const Vector x2 = lu.solve({4.0, 1.0});
  EXPECT_NEAR(x1[0], 1.0, 1e-12);
  EXPECT_NEAR(x2[0], 1.0, 1e-12);
  EXPECT_NEAR(x2[1], 0.0, 1e-12);
  EXPECT_NEAR(lu.absDeterminant(), 15.0, 1e-12);
  EXPECT_THROW(DenseLu<double>{Matrix(2, 3)}, std::invalid_argument);
  EXPECT_THROW((DenseLu<double>{Matrix{{1.0, 2.0}, {2.0, 4.0}}}), std::runtime_error);
}

TEST(DenseLuComplex, SolvesKnownTwoByTwoSystem) {
  // A = [[1+i, 2], [3, 4-i]], x = [1-i, 2+i]  =>  b = A x.
  Matrix re(2, 2), im(2, 2);
  re(0, 0) = 1.0; im(0, 0) = 1.0;
  re(0, 1) = 2.0;
  re(1, 0) = 3.0;
  re(1, 1) = 4.0; im(1, 1) = -1.0;
  const ComplexVector x_ref = {Complex(1.0, -1.0), Complex(2.0, 1.0)};
  const ComplexVector b = {Complex(1.0, 1.0) * x_ref[0] + 2.0 * x_ref[1],
                           3.0 * x_ref[0] + Complex(4.0, -1.0) * x_ref[1]};
  DenseLu<Complex> lu;
  lu.factor(re, im);
  EXPECT_LT(maxDiff(lu.solve(b), x_ref), 1e-13);
  EXPECT_THROW(lu.factor(Matrix(2, 2), Matrix(3, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace fdtdmm
