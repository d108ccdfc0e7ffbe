#include "transform/poisson.hpp"

#include <algorithm>
#include <cmath>

#include "transform/dct.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {
namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

FastPoisson3D::FastPoisson3D(PoissonGrid grid) : grid_(std::move(grid)) {
  const auto& g = grid_;
  SUBSPAR_REQUIRE(g.nx > 0 && g.ny > 0 && g.nz > 0);
  SUBSPAR_REQUIRE(is_power_of_two(g.nx) && is_power_of_two(g.ny));
  SUBSPAR_REQUIRE(g.lateral_g.size() == g.nz);
  SUBSPAR_REQUIRE(g.vertical_g.size() + 1 == g.nz || g.nz == 1);
  cx_ = dct2_matrix(g.nx);
  cy_ = dct2_matrix(g.ny);

  // Pre-factor the per-(kx, ky) tridiagonal z-system (Thomas algorithm):
  // pivots m and upper factors c', laid out [z][ky][kx] like the modes.
  const std::size_t nz = g.nz, lanes = g.nx * g.ny;
  pivot_.resize(nz * lanes);
  cprime_.resize((nz - 1) * lanes);
  auto mu = [](std::size_t k, std::size_t n) {
    return 2.0 - 2.0 * std::cos(kPi * static_cast<double>(k) / static_cast<double>(n));
  };
  std::vector<double> diag(nz);
  for (std::size_t ky = 0; ky < g.ny; ++ky) {
    for (std::size_t kx = 0; kx < g.nx; ++kx) {
      const double lat = mu(kx, g.nx) + mu(ky, g.ny);
      for (std::size_t z = 0; z < nz; ++z) {
        double d = g.lateral_g[z] * lat;
        if (z > 0) d += g.vertical_g[z - 1];
        if (z + 1 < nz) d += g.vertical_g[z];
        if (z == nz - 1) d += g.top_g;
        if (z == 0) d += g.bottom_g;
        diag[z] = d;
      }
      if (kx == 0 && ky == 0 && g.top_g == 0.0 && g.bottom_g == 0.0) {
        // Floating constant mode: anchor weakly so the solve stays defined
        // (approximates the pseudo-inverse with a huge finite response).
        double gmax = 0.0;
        for (double v : g.vertical_g) gmax = std::max(gmax, v);
        for (double v : g.lateral_g) gmax = std::max(gmax, v);
        diag[nz - 1] += 1e-10 * (gmax > 0.0 ? gmax : 1.0);
      }
      const std::size_t l = kx + g.nx * ky;
      double d0 = diag[0];
      SUBSPAR_ENSURE(d0 != 0.0);
      pivot_[l] = d0;
      double cp = (nz > 1) ? -g.vertical_g[0] / d0 : 0.0;
      if (nz > 1) cprime_[l] = cp;
      for (std::size_t z = 1; z < nz; ++z) {
        const double lower = -g.vertical_g[z - 1];
        const double m = diag[z] - lower * cp;
        SUBSPAR_ENSURE(m != 0.0);
        pivot_[z * lanes + l] = m;
        if (z + 1 < nz) {
          cp = -g.vertical_g[z] / m;
          cprime_[z * lanes + l] = cp;
        }
      }
    }
  }
}

void FastPoisson3D::solve_column(const double* b, std::size_t b_stride, double* x,
                                 std::size_t x_stride) const {
  const auto& g = grid_;
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz, lanes = nx * ny;
  // One column is one task: its GEMMs are too small to pay for the pool.
  const ParallelInlineScope inline_scope;
  // Per-thread buffers, reused across calls like the GEMM packing buffers:
  // fresh grid-sized ones would be page-faulted in on every call, and the
  // faults serialize the pool's threads. Rows of the (nz * ny) x nx `grid`
  // are the x-lines; after the x- and y-transforms `modes` holds the
  // (kx, ky, z) coefficients as [z][ky][kx].
  thread_local struct Workspace {
    Matrix grid, modes, plane, plane_t;
  } ws;
  Matrix& grid = ws.grid;
  Matrix& modes = ws.modes;
  Matrix& plane = ws.plane;
  Matrix& plane_t = ws.plane_t;
  if (grid.rows() != nz * ny || grid.cols() != nx || plane.rows() != ny) {
    grid = Matrix(nz * ny, nx);
    modes = Matrix(nz * ny, nx);
    plane = Matrix(ny, nx);
    plane_t = Matrix(ny, nx);
  }
  const auto zero = [](Matrix& m) { std::fill_n(m.row_ptr(0), m.rows() * m.cols(), 0.0); };
  // y-transform of each z-plane of `modes` (contiguous ny x nx rows).
  const auto transform_y = [&](bool forward) {
    for (std::size_t z = 0; z < nz; ++z) {
      double* p = modes.row_ptr(z * ny);
      std::copy_n(p, lanes, plane.row_ptr(0));
      zero(plane_t);
      if (forward) {
        matmul_add(plane_t, cy_, plane);
      } else {
        matmul_tn_add(plane_t, cy_, plane);
      }
      std::copy_n(plane_t.row_ptr(0), lanes, p);
    }
  };

  double* gp = grid.row_ptr(0);
  for (std::size_t i = 0; i < g.size(); ++i) gp[i] = b[i * b_stride];
  zero(modes);
  matmul_nt_add(modes, grid, cx_);
  transform_y(/*forward=*/true);

  // Pre-factored Thomas sweeps along z, plane by plane over contiguous
  // lanes (one lane per (kx, ky) mode).
  double* r = modes.row_ptr(0);
  for (std::size_t l = 0; l < lanes; ++l) r[l] /= pivot_[l];
  for (std::size_t z = 1; z < nz; ++z) {
    const double lower = -g.vertical_g[z - 1];
    const double* prev = r + (z - 1) * lanes;
    double* rz = r + z * lanes;
    const double* m = pivot_.data() + z * lanes;
    for (std::size_t l = 0; l < lanes; ++l) rz[l] = (rz[l] - lower * prev[l]) / m[l];
  }
  for (std::size_t z = nz - 1; z-- > 0;) {
    double* rz = r + z * lanes;
    const double* next = rz + lanes;
    const double* cp = cprime_.data() + z * lanes;
    for (std::size_t l = 0; l < lanes; ++l) rz[l] -= cp[l] * next[l];
  }

  transform_y(/*forward=*/false);
  zero(grid);
  matmul_add(grid, modes, cx_);
  for (std::size_t i = 0; i < g.size(); ++i) x[i * x_stride] = gp[i];
}

Vector FastPoisson3D::solve(const Vector& b) const {
  SUBSPAR_REQUIRE(b.size() == grid_.size());
  Vector x(b.size());
  solve_column(b.data(), 1, x.data(), 1);
  return x;
}

Matrix FastPoisson3D::solve_many(const Matrix& b) const {
  SUBSPAR_REQUIRE(b.rows() == grid_.size());
  const std::size_t k = b.cols();
  Matrix x(b.rows(), k);
  parallel_for(k, [&](std::size_t j) { solve_column(b.row_ptr(0) + j, k, x.row_ptr(0) + j, k); });
  return x;
}

Vector FastPoisson3D::apply(const Vector& x) const {
  const auto& g = grid_;
  SUBSPAR_REQUIRE(x.size() == g.size());
  Vector y(g.size());
  for (std::size_t z = 0; z < g.nz; ++z) {
    const double gl = g.lateral_g[z];
    for (std::size_t yy = 0; yy < g.ny; ++yy) {
      for (std::size_t xx = 0; xx < g.nx; ++xx) {
        const std::size_t i = g.index(xx, yy, z);
        double s = 0.0;
        auto couple = [&](std::size_t j, double gc) { s += gc * (x[i] - x[j]); };
        if (xx > 0) couple(g.index(xx - 1, yy, z), gl);
        if (xx + 1 < g.nx) couple(g.index(xx + 1, yy, z), gl);
        if (yy > 0) couple(g.index(xx, yy - 1, z), gl);
        if (yy + 1 < g.ny) couple(g.index(xx, yy + 1, z), gl);
        if (z > 0) couple(g.index(xx, yy, z - 1), g.vertical_g[z - 1]);
        if (z + 1 < g.nz) couple(g.index(xx, yy, z + 1), g.vertical_g[z]);
        if (z == g.nz - 1) s += g.top_g * x[i];
        if (z == 0) s += g.bottom_g * x[i];
        y[i] = s;
      }
    }
  }
  return y;
}

}  // namespace subspar
