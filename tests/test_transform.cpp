// Tests for the transform layer: the orthonormal DCT-II matrix (the one
// cosine transform both DCT-diagonalized solvers apply as GEMMs) and the
// fast Poisson solver against direct dense solves.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "transform/dct.hpp"
#include "transform/poisson.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Dct, MatrixIsOrthonormal) {
  for (const std::size_t n : {1u, 2u, 3u, 8u, 12u, 64u, 256u}) {
    const Matrix c = dct2_matrix(n);
    const Matrix cct = matmul_nt(c, c);
    const Matrix ctc = matmul_tn(c, c);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const double id = i == j ? 1.0 : 0.0;
        ASSERT_NEAR(cct(i, j), id, 1e-13) << "C C' n=" << n << " (" << i << ", " << j << ")";
        ASSERT_NEAR(ctc(i, j), id, 1e-13) << "C' C n=" << n << " (" << i << ", " << j << ")";
      }
  }
}

TEST(Dct, OrthonormalParseval) {
  Rng rng(7);
  Vector x(64);
  for (auto& v : x) v = rng.normal();
  const Vector y = matvec(dct2_matrix(64), x);
  EXPECT_NEAR(dot(x, x), dot(y, y), 1e-10 * dot(x, x));
}

TEST(Dct, ConstantMapsToDcModeOnly) {
  const Vector y = matvec(dct2_matrix(16), Vector(16, 3.0));
  EXPECT_NEAR(y[0], 3.0 * std::sqrt(16.0), 1e-12);
  for (std::size_t k = 1; k < y.size(); ++k) EXPECT_NEAR(y[k], 0.0, 1e-12);
}

TEST(Dct2d, SeparableModeIsEigenvector) {
  // cos(pi*2(i+1/2)/8)*cos(pi*3(j+1/2)/8) must transform to a single
  // coefficient at (2,3) under C A C'.
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = std::cos(kPi * 2.0 * (i + 0.5) / n) * std::cos(kPi * 3.0 * (j + 0.5) / n);
  const Matrix c = dct2_matrix(n);
  const Matrix modes = matmul_nt(matmul(c, a), c);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == 2 && j == 3) {
        EXPECT_NEAR(modes(i, j), n / 2.0, 1e-10);  // (sqrt(2/n)*n/2)^2 scaling
      } else {
        EXPECT_NEAR(modes(i, j), 0.0, 1e-10);
      }
    }
}

TEST(Dct2d, SeparableModesDiagonalizeTheNeumannLaplacian) {
  // Every product of a row of Cy and a row of Cx is an eigenvector of the
  // 5-point Neumann grid Laplacian, with eigenvalue mu(kx) + mu(ky),
  // mu(k) = 2 - 2 cos(pi k / n): what makes the DCT the fast-Poisson and
  // surface-operator diagonalizer.
  const std::size_t nx = 8, ny = 4;
  const Matrix cx = dct2_matrix(nx), cy = dct2_matrix(ny);
  const auto mu = [](std::size_t k, std::size_t n) {
    return 2.0 - 2.0 * std::cos(kPi * static_cast<double>(k) / static_cast<double>(n));
  };
  for (std::size_t ky = 0; ky < ny; ++ky)
    for (std::size_t kx = 0; kx < nx; ++kx) {
      Matrix v(ny, nx);
      for (std::size_t y = 0; y < ny; ++y)
        for (std::size_t x = 0; x < nx; ++x) v(y, x) = cy(ky, y) * cx(kx, x);
      const double lambda = mu(kx, nx) + mu(ky, ny);
      for (std::size_t y = 0; y < ny; ++y)
        for (std::size_t x = 0; x < nx; ++x) {
          double lv = 0.0;
          if (x > 0) lv += v(y, x) - v(y, x - 1);
          if (x + 1 < nx) lv += v(y, x) - v(y, x + 1);
          if (y > 0) lv += v(y, x) - v(y - 1, x);
          if (y + 1 < ny) lv += v(y, x) - v(y + 1, x);
          ASSERT_NEAR(lv, lambda * v(y, x), 1e-13) << "mode (" << kx << ", " << ky << ")";
        }
    }
}

// ------------------------------------------------------------ fast Poisson

// Two-layer profile with a boundary resistor in series between the layers.
PoissonGrid layered_grid(std::size_t nx, std::size_t ny, std::size_t nz, double top_g,
                         double bottom_g) {
  PoissonGrid g;
  g.nx = nx;
  g.ny = ny;
  g.nz = nz;
  for (std::size_t z = 0; z < nz; ++z) g.lateral_g.push_back(z < 2 ? 2.0 : 1.0);
  for (std::size_t z = 0; z + 1 < nz; ++z)
    g.vertical_g.push_back(z == 0 ? 2.0 : (z == 1 ? std::sqrt(2.0) : 1.0));
  g.top_g = top_g;
  g.bottom_g = bottom_g;
  return g;
}

PoissonGrid small_grid(double top_g, double bottom_g) {
  return layered_grid(4, 8, 5, top_g, bottom_g);
}

// Grids large enough for the transforms to leave the small-product branch
// of the dense kernels: the x-transform GEMM (nz * ny x nx by nx) of both,
// and the per-plane y-transform (ny x ny by ny x nx) of the second.
PoissonGrid packed_grid(double top_g, double bottom_g) {
  return layered_grid(32, 16, 6, top_g, bottom_g);
}
PoissonGrid packed_grid_tall(double top_g, double bottom_g) {
  return layered_grid(32, 64, 4, top_g, bottom_g);
}

TEST(FastPoisson, SolveInvertsApply) {
  // 32 x 32 x 3 right after 32 x 16 x 6: same grid-view shape, different
  // plane shape, so the per-thread work buffers must be resized.
  for (const PoissonGrid& g : {small_grid(0.7, 0.0), packed_grid(0.7, 0.0),
                               layered_grid(32, 32, 3, 0.7, 0.0), packed_grid_tall(0.3, 1.5)}) {
    const FastPoisson3D fp(g);
    Rng rng(12);
    Vector b(fp.grid().size());
    for (auto& v : b) v = rng.normal();
    const Vector x = fp.solve(b);
    EXPECT_LT(norm2(fp.apply(x) - b), 1e-10 * norm2(b)) << g.nx << "x" << g.ny << "x" << g.nz;
  }
}

TEST(FastPoisson, MatchesDenseCholesky) {
  // The 32 x 16 x 3 grid keeps the dense factorization small while its
  // x-transform is still a packed GEMM.
  for (const PoissonGrid& g : {small_grid(0.3, 1.5), layered_grid(32, 16, 3, 0.3, 1.5)}) {
    const FastPoisson3D fp(g);
    const std::size_t n = fp.grid().size();
    // Build the dense operator column by column via apply().
    Matrix a(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      Vector e(n);
      e[j] = 1.0;
      a.set_col(j, fp.apply(e));
    }
    const Cholesky chol(a);
    Rng rng(13);
    Vector b(n);
    for (auto& v : b) v = rng.normal();
    EXPECT_LT(norm2(fp.solve(b) - chol.solve(b)), 1e-9 * norm2(b)) << g.nx << "x" << g.ny;
  }
}

TEST(FastPoisson, FloatingGridHandlesConstantMode) {
  const FastPoisson3D fp(small_grid(0.0, 0.0));  // no anchors: singular mode
  Rng rng(14);
  Vector b(fp.grid().size());
  for (auto& v : b) v = rng.normal();
  // Remove the mean so b is in the range of the singular operator.
  double mean = 0.0;
  for (double v : b) mean += v;
  mean /= static_cast<double>(b.size());
  for (auto& v : b) v -= mean;
  const Vector x = fp.solve(b);
  const Vector r = fp.apply(x) - b;
  EXPECT_LT(norm2(r), 1e-6 * norm2(b));
}

TEST(FastPoisson, ApplyIsSymmetric) {
  const FastPoisson3D fp(small_grid(0.4, 0.2));
  Rng rng(15);
  Vector x(fp.grid().size()), y(fp.grid().size());
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  EXPECT_NEAR(dot(fp.apply(x), y), dot(x, fp.apply(y)), 1e-10);
}

TEST(FastPoisson, RejectsNonPowerOfTwoLateralDims) {
  PoissonGrid g = small_grid(0.1, 0.0);
  g.nx = 6;
  EXPECT_THROW(FastPoisson3D{g}, std::invalid_argument);
}

TEST(FastPoisson, SolveManyColumnsBitwiseEqualSolve) {
  // Column j of a batch is solve(column j) exactly, whatever the batch
  // width and pool size.
  for (const PoissonGrid& g : {packed_grid(0.7, 0.0), packed_grid_tall(0.0, 0.0)}) {
    const FastPoisson3D fp(g);
    Rng rng(19);
    Matrix b(g.size(), 5);
    for (std::size_t i = 0; i < b.rows(); ++i)
      for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
    for (const std::size_t threads : {1u, 4u}) {
      set_thread_count(threads);
      const Matrix x = fp.solve_many(b);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        const Vector xj = fp.solve(b.col(j));
        for (std::size_t i = 0; i < xj.size(); ++i)
          ASSERT_EQ(x(i, j), xj[i]) << "threads=" << threads << " col " << j;
      }
    }
    set_thread_count(1);
  }
}

class PoissonTopG : public ::testing::TestWithParam<double> {};

TEST_P(PoissonTopG, SolveExactAcrossTopCouplings) {
  PoissonGrid g = small_grid(GetParam(), 0.0);
  const FastPoisson3D fp(g);
  Rng rng(16);
  Vector b(fp.grid().size());
  for (auto& v : b) v = rng.normal();
  const Vector x = fp.solve(b);
  EXPECT_LT(norm2(fp.apply(x) - b), 1e-9 * norm2(b));
}

INSTANTIATE_TEST_SUITE_P(TopCouplings, PoissonTopG, ::testing::Values(0.05, 0.25, 1.0, 4.0));

TEST(FastPoisson, SingleLayerNzOne) {
  PoissonGrid g;
  g.nx = 8;
  g.ny = 8;
  g.nz = 1;
  g.lateral_g = {1.5};
  g.top_g = 0.7;
  const FastPoisson3D fp(g);
  Rng rng(31);
  Vector b(fp.grid().size());
  for (auto& v : b) v = rng.normal();
  const Vector x = fp.solve(b);
  EXPECT_LT(norm2(fp.apply(x) - b), 1e-10 * norm2(b));
}

}  // namespace
}  // namespace subspar
