#pragma once
/// \file linear_solve.h
/// Direct linear solvers: one-shot LU solve of a square system (the
/// factorization itself is DenseLu, math/dense_lu.h) and Householder-QR
/// least squares (RBF weight fitting).

#include "math/matrix.h"

namespace fdtdmm {

/// Solves the square system A x = b by LU with partial pivoting.
/// \throws std::invalid_argument if A is not square, std::runtime_error if
///         A is singular.
Vector solveLinear(const Matrix& a, const Vector& b);

/// Solves min_x ||A x - b||_2 by Householder QR. Requires rows >= cols.
/// \param ridge optional Tikhonov regularization: solves the augmented
///        system [A; sqrt(ridge) I] x = [b; 0]; ridge = 0 disables it.
/// \throws std::invalid_argument on size mismatch, std::runtime_error if
///         A is rank-deficient and ridge == 0.
Vector solveLeastSquares(const Matrix& a, const Vector& b, double ridge = 0.0);

}  // namespace fdtdmm
