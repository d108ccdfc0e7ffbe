// Fast direct solver for the layered grid-of-resistors Poisson problem with
// uniform boundary conditions on each face (§2.2.2, "fast-solver
// preconditioners").
//
// The lateral (x, y) couplings are diagonalized by 2-D DCTs (Neumann
// sidewalls); what remains is an independent tridiagonal system in z per
// (kx, ky) mode, solved directly. Exact for uniform top-face conditions;
// used as the PCG preconditioner M when the top face mixes contact
// (Dirichlet) and non-contact (Neumann) nodes. The `top_coupling` knob is
// the paper's p parameter: p = 1 gives the pure-Dirichlet preconditioner,
// p = 0 pure-Neumann, intermediate values the area-weighted variant of
// Table 2.1.
//
// The lateral transforms are dense GEMMs on the packed kernel of
// linalg/dense_kernels.cpp, against orthonormal DCT-II matrices Cx and Cy
// built once, and the per-mode z-systems are factored once. One solve is
// four transforms plus a streaming forward/back sweep over contiguous mode
// lanes: about 4 (nx + ny) flops per grid point, O(N (nx + ny)) in all.
// That per-point cost grows linearly with the lateral size where an FFT's
// grows with its logarithm, so each doubling of nx and ny beyond 64 doubles
// it, and much wider grids pay more per point than an FFT transform would.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace subspar {

struct PoissonGrid {
  std::size_t nx = 0, ny = 0, nz = 0;  ///< node counts; z index 0 = bottom
  /// Lateral resistor conductance per z-plane (sigma(z) * h).
  std::vector<double> lateral_g;
  /// Vertical conductance between plane j and j+1 (size nz - 1).
  std::vector<double> vertical_g;
  /// Extra diagonal coupling on every top-plane node (Dirichlet ghost
  /// resistor, the paper's p * sigma_L * h). 0 disables.
  double top_g = 0.0;
  /// Extra diagonal coupling on every bottom-plane node (backplane contact).
  double bottom_g = 0.0;

  std::size_t size() const { return nx * ny * nz; }
  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return x + nx * (y + ny * z);
  }
};

class FastPoisson3D {
 public:
  /// nx and ny must be powers of two; nz is arbitrary. Builds Cx, Cy and
  /// the per-mode z factors (O(nx^2 + ny^2 + N) memory).
  explicit FastPoisson3D(PoissonGrid grid);

  /// Exact solve of M x = b in O(N (nx + ny)): x- and y-transforms as
  /// GEMMs, the cached z factors swept plane by plane, and the inverse
  /// transforms. If the grid is floating (no top or bottom anchors), the
  /// all-constant mode is regularized by a tiny anchor so M stays usable
  /// as an SPD preconditioner.
  Vector solve(const Vector& b) const;

  /// X = M^{-1} B for k right-hand-side columns, one util/parallel task per
  /// column (a column's GEMMs run inline on its task). Per-column
  /// arithmetic is exactly solve()'s, so columns are bit-identical to
  /// single solves for any batch width and SUBSPAR_THREADS.
  Matrix solve_many(const Matrix& b) const;

  /// y = M x (real-space stencil application) for validation.
  Vector apply(const Vector& x) const;

  const PoissonGrid& grid() const { return grid_; }

 private:
  /// The one solve path: x = M^{-1} b for a column read and written with
  /// the given element strides (1 for a Vector, k for column j of an
  /// n x k row-major Matrix).
  void solve_column(const double* b, std::size_t b_stride, double* x,
                    std::size_t x_stride) const;

  PoissonGrid grid_;
  Matrix cx_, cy_;              // orthonormal DCT-II matrices (nx x nx, ny x ny)
  std::vector<double> pivot_;   // Thomas pivots m, [z][ky][kx]
  std::vector<double> cprime_;  // Thomas upper factors c', [z][ky][kx], z < nz - 1
};

}  // namespace subspar
