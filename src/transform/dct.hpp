// The orthonormal discrete cosine transform (DCT-II) as a dense matrix.
//
// The cosine modes cos(m pi (j+1/2)/N) are the eigenvectors of both the
// Neumann-boundary grid Laplacian (fast-Poisson preconditioner, §2.2.2) and
// the layered-substrate surface operator (eigenfunction solver, §2.3.1), so
// this one transform diagonalizes both. Each solver builds its matrices
// once and applies them as GEMMs on the dense kernel layer.
//
// Convention: with s_0 = sqrt(1/N), s_k = sqrt(2/N),
//   C(k, j) = s_k cos(pi k (2j+1) / (2N)),
// which makes C orthogonal: the inverse transform (DCT-III) is C' = C^{-1}.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace subspar {

/// The n x n orthonormal DCT-II matrix: row k is mode k sampled at the
/// n cell centers.
Matrix dct2_matrix(std::size_t n);

}  // namespace subspar
