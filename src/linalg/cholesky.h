// Cholesky factorization with adaptive jitter, triangular solves and
// log-determinant — the numerical core of GP posterior inference.
//
// The factorization is a blocked right-looking panel algorithm (panel
// factor + register-tiled parallel trailing SYRK) and the matrix solves
// are blocked over right-hand-side columns with panelled k sweeps. Every
// element accumulates its inner-product terms in a documented, fixed index
// order — strictly increasing k for the factorization and the forward
// solves, strictly decreasing k for the back substitutions (the natural
// bottom-up order, and the only one a right-looking panelled back
// substitution can preserve exactly) — so results are bit-identical to the
// naive reference loops at any `num_threads` setting (see DESIGN.md
// "Threading model" / "Kernel engineering").
#pragma once

#include "common/result.h"
#include "linalg/matrix.h"

namespace sparktune {

// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class Cholesky {
 public:
  // Factor A = L * L^T. If A is not numerically PD, progressively larger
  // jitter (up to `max_jitter`) is added to the diagonal before failing.
  // `num_threads` parallelizes the trailing-submatrix update (1 = serial,
  // 0 = global pool default width); the factor is bit-identical at any
  // setting.
  static Result<Cholesky> Factor(const Matrix& a, double initial_jitter = 1e-10,
                                 double max_jitter = 1e-2,
                                 int num_threads = 1);

  // Solve A x = b via forward/back substitution. The back-substitution
  // half accumulates k terms in strictly decreasing order (bottom-up).
  Vector Solve(const Vector& b) const;
  // Solve L y = b (forward substitution only, ascending k). Works in place
  // in `b`, so a caller that moves its vector in allocates nothing.
  Vector SolveLower(Vector b) const;
  // Solve L Y = B for all columns of B at once (forward substitution on
  // column blocks, no per-column copies). Column j of the result equals
  // SolveLower(column j of B) bit-for-bit; `num_threads` splits the
  // independent columns over the pool.
  Matrix SolveLowerMatrix(const Matrix& b, int num_threads = 1) const;
  // Solve L^T X = Y for all columns of Y at once (panelled back
  // substitution on column blocks). Column j equals the back-substitution
  // half of Solve(·) on column j bit-for-bit: per element the k terms
  // arrive in strictly decreasing order, panels bottom-up.
  Matrix SolveUpperMatrix(const Matrix& y, int num_threads = 1) const;
  // Solve A X = B for all columns of B at once (SolveLowerMatrix followed
  // by SolveUpperMatrix). Column j equals Solve(column j of B)
  // bit-for-bit.
  Matrix SolveMatrix(const Matrix& b, int num_threads = 1) const;

  // log |A| = 2 * sum(log L_ii).
  double LogDet() const;

  // Jitter that was actually applied to make the factorization succeed.
  double applied_jitter() const { return applied_jitter_; }

  const Matrix& lower() const { return l_; }

 private:
  Matrix l_;
  double applied_jitter_ = 0.0;
};

}  // namespace sparktune
