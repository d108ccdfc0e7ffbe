#include "lowrank/rbk_basis.hpp"

#include "linalg/qr.hpp"
#include "util/rng.hpp"

namespace subspar {

double rbk_subspace_residual(const Matrix& v, const Matrix& samples) {
  const double total = samples.frobenius_norm();
  if (total == 0.0) return 0.0;
  if (v.cols() == 0) return 1.0;
  Matrix resid = samples;
  const Matrix coeff = matmul_tn(v, samples);
  matmul_add(resid, v, coeff, -1.0);  // S - V (V'S)
  return resid.frobenius_norm() / total;
}

Matrix rbk_gaussian_probes(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix omega(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) omega(i, j) = rng.normal();
  // QR re-orthonormalization: probe columns with unit norm and no mutual
  // overlap spread the response energy evenly, which keeps the residual
  // certificate well scaled. Wide blocks (cols > rows) stay raw — QR would
  // need rows >= cols — and are truncated by the caller's rank caps anyway.
  if (rows >= cols && cols > 0) return QR(omega).thin_q();
  return omega;
}

std::uint64_t rbk_stream_seed(std::uint64_t seed, int level, int round, int ix, int iy) {
  // SplitMix64-style finalization over the tuple so each (block, round)
  // draws an independent stream regardless of which other blocks probe.
  std::uint64_t z = seed;
  const auto mix = [&z](std::uint64_t v) {
    z += 0x9e3779b97f4a7c15ULL + v;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
  };
  mix(static_cast<std::uint64_t>(level));
  mix(static_cast<std::uint64_t>(round));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(ix)));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(iy)));
  return z;
}

}  // namespace subspar
