// Tests for the randomized block-Krylov row-basis machinery
// (lowrank/rbk_basis.hpp) and its multilevel driver in RowBasisRep: the
// probe, seed and certification helpers, fixed-seed bit-reproducibility,
// thread-count bit-identity, the per-square fallback, and the headline
// fewer-solves-at-equal-accuracy comparison against the deterministic
// column-sampling build.
#include <gtest/gtest.h>

#include <cmath>

#include "geometry/layout_gen.hpp"
#include "lowrank/rbk_basis.hpp"
#include "lowrank/row_basis.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/solver.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

SubstrateStack test_stack() { return paper_stack(40.0, 0.5, 1.0); }

// Worst relative error of rep.apply against the dense G over 8 seeded
// random vectors.
double worst_apply_error(const RowBasisRep& rep, const Matrix& g) {
  Rng rng(77);
  double worst = 0.0;
  for (int t = 0; t < 8; ++t) {
    Vector v(g.rows());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.normal();
    const Vector exact = matvec(g, v);
    const Vector approx = rep.apply(v);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      num += (approx[i] - exact[i]) * (approx[i] - exact[i]);
      den += exact[i] * exact[i];
    }
    worst = std::max(worst, std::sqrt(num / den));
  }
  return worst;
}

// ------------------------------------------------------------- helpers

TEST(RbkHelpers, SubspaceResidualMatchesDenseProjection) {
  const std::size_t n = 20;
  const Matrix v = rbk_gaussian_probes(n, 5, 3);  // orthonormal n x 5
  Rng rng(11);
  Matrix s(n, 4);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 4; ++j) s(i, j) = rng.normal();

  // Against the explicit projection remainder S - V V'S.
  const Matrix remainder = s - matmul(v, matmul_tn(v, s));
  EXPECT_NEAR(rbk_subspace_residual(v, s), remainder.frobenius_norm() / s.frobenius_norm(),
              1e-14);
  // Samples inside span(V) leave nothing behind.
  Matrix coeff(5, 3);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 3; ++j) coeff(i, j) = rng.normal();
  EXPECT_LT(rbk_subspace_residual(v, matmul(v, coeff)), 1e-14);
  // An empty basis captures nothing; all-zero samples need nothing.
  EXPECT_EQ(rbk_subspace_residual(Matrix(n, 0), s), 1.0);
  EXPECT_EQ(rbk_subspace_residual(v, Matrix(n, 4)), 0.0);
}

TEST(RbkHelpers, StreamSeedsSeparateBlocksAndRounds) {
  const std::uint64_t base = rbk_stream_seed(12345, 2, 0, 0, 0);
  EXPECT_NE(base, rbk_stream_seed(12345, 2, 0, 0, 1));
  EXPECT_NE(base, rbk_stream_seed(12345, 2, 0, 1, 0));
  EXPECT_NE(base, rbk_stream_seed(12345, 2, 1, 0, 0));
  EXPECT_NE(base, rbk_stream_seed(12345, 3, 0, 0, 0));
  EXPECT_NE(base, rbk_stream_seed(12346, 2, 0, 0, 0));
  // Same tuple, same seed: the stream is a pure function of its inputs.
  EXPECT_EQ(base, rbk_stream_seed(12345, 2, 0, 0, 0));
}

TEST(RbkHelpers, GaussianProbesAreOrthonormalWhenTall) {
  const Matrix p = rbk_gaussian_probes(12, 3, 5);
  const Matrix ptp = matmul_tn(p, p);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(ptp(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

// ------------------------------------------------- multilevel RBK driver

TEST(RbkRowBasis, FewerSolvesThanDeterministicAtComparableAccuracy) {
  const Layout layout = regular_grid_layout(16);
  const SurfaceSolver solver(layout, test_stack());
  const QuadTree tree(layout);
  const Matrix g = extract_dense(solver);

  const RowBasisRep det(solver, tree, {});
  LowRankOptions ro;
  ro.basis = RowBasisScheme::kBlockKrylov;
  const RowBasisRep rbk(solver, tree, ro);

  EXPECT_LT(rbk.solves(), det.solves());
  const double det_err = worst_apply_error(det, g);
  const double rbk_err = worst_apply_error(rbk, g);
  // Comparable accuracy: the randomized build must stay within 2x of the
  // deterministic apply error (both are ~1e-6 here).
  EXPECT_LT(rbk_err, 2.0 * det_err);
  EXPECT_LT(rbk_err, 1e-4);

  // The trajectory narrates the build: at least one sketch round, and the
  // full-rank shortcut leaves finer levels converged in a single round.
  ASSERT_FALSE(rbk.trajectory().empty());
  EXPECT_EQ(rbk.trajectory().front().level, 2);
  for (const RbkStep& s : rbk.trajectory()) {
    EXPECT_GE(s.round, 0);
    EXPECT_LE(s.max_rank, ro.max_rank);
  }
}

TEST(RbkRowBasis, FixedSeedIsBitReproducible) {
  const Layout layout = regular_grid_layout(16);
  const SurfaceSolver solver(layout, test_stack());
  const QuadTree tree(layout);

  LowRankOptions ro;
  ro.basis = RowBasisScheme::kBlockKrylov;
  const RowBasisRep a(solver, tree, ro);
  const RowBasisRep b(solver, tree, ro);

  Rng rng(5);
  Vector v(layout.n_contacts());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.normal();
  const Vector ya = a.apply(v);
  const Vector yb = b.apply(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(ya[i], yb[i]) << "row " << i;
  EXPECT_EQ(a.solves(), b.solves());
  ASSERT_EQ(a.trajectory().size(), b.trajectory().size());
  for (std::size_t i = 0; i < a.trajectory().size(); ++i)
    EXPECT_EQ(a.trajectory()[i].max_residual, b.trajectory()[i].max_residual);
}

TEST(RbkRowBasis, UncertifiedSquaresFallBackDeterministically) {
  // One Krylov round at a certification target no sketch meets: the level-2
  // squares that do not saturate their rank budget take the per-square
  // column-sampling fallback (rounds max_iters+1 and +2).
  const Layout layout = regular_grid_layout(16);
  const SurfaceSolver solver(layout, test_stack());
  const QuadTree tree(layout);
  const Matrix g = extract_dense(solver);
  LowRankOptions ro;
  ro.basis = RowBasisScheme::kBlockKrylov;
  ro.rbk.max_iters = 1;
  ro.rbk.target_tol = 1e-6;
  const RowBasisRep a(solver, tree, ro);

  EXPECT_GT(a.rbk_fallback_squares(), 0);
  const auto has_level2_round = [&](int round) {
    for (const RbkStep& s : a.trajectory())
      if (s.level == 2 && s.round == round) return true;
    return false;
  };
  const int max_iters = static_cast<int>(ro.rbk.max_iters);
  EXPECT_TRUE(has_level2_round(max_iters + 1));
  EXPECT_TRUE(has_level2_round(max_iters + 2));

  const RowBasisRep det(solver, tree, {});
  EXPECT_LT(worst_apply_error(a, g), 2.0 * worst_apply_error(det, g));

  const RowBasisRep b(solver, tree, ro);
  EXPECT_EQ(a.solves(), b.solves());
  EXPECT_EQ(a.rbk_fallback_squares(), b.rbk_fallback_squares());
  ASSERT_EQ(a.trajectory().size(), b.trajectory().size());
  for (std::size_t i = 0; i < a.trajectory().size(); ++i)
    EXPECT_EQ(a.trajectory()[i].max_residual, b.trajectory()[i].max_residual);
  Rng rng(5);
  Vector v(layout.n_contacts());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.normal();
  const Vector ya = a.apply(v);
  const Vector yb = b.apply(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(ya[i], yb[i]) << "row " << i;
}

TEST(RbkRowBasis, ThreadCountDoesNotChangeBits) {
  const Layout layout = regular_grid_layout(16);
  const SurfaceSolver solver(layout, test_stack());
  const QuadTree tree(layout);
  LowRankOptions ro;
  ro.basis = RowBasisScheme::kBlockKrylov;

  const std::size_t restore = thread_count();
  set_thread_count(1);
  const RowBasisRep one(solver, tree, ro);
  set_thread_count(4);
  const RowBasisRep four(solver, tree, ro);
  set_thread_count(restore);

  Rng rng(9);
  Vector v(layout.n_contacts());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.normal();
  const Vector y1 = one.apply(v);
  const Vector y4 = four.apply(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(y1[i], y4[i]) << "row " << i;
  EXPECT_EQ(one.solves(), four.solves());
}

}  // namespace
}  // namespace subspar
