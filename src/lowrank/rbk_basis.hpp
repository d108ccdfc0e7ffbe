// Randomized block-Krylov row-basis machinery.
//
// The deterministic column-sampling construction of §4.3.3 fixes its sample
// budget up front (one random vector per interactive square) and fills every
// row basis to the max_rank cap. The randomized block-Krylov (RBK) scheme
// replaces that with an adaptive loop in the Halko–Martinsson–Tropp /
// block-Lanczos family: draw a seeded Gaussian block Omega, push it through
// the black-box operator G (SubstrateSolver::solve_many at level 2, the
// combine-solve splitting method on finer levels), and stop each block as
// soon as a residual-norm estimate certifies that the captured subspace
// reproduces fresh responses to the target tolerance. Ranks are chosen by
// the same singular-value ratio test as column sampling
// (LowRankOptions::sigma_rel_tol); the certificate only decides when a
// block stops refining. Two structural savings over column sampling fall
// out:
//
//  * blocks whose voltage space is no larger than the rank cap take the
//    exact identity basis and skip the sampling pass entirely (on the
//    paper's grids this removes every sample solve below the second level);
//  * a block whose sketch certifies in one round records its basis
//    responses in that same round, so certification costs no extra solves.
//
// This header provides the probe, seed and certification helpers plus the
// option/trajectory types; the multilevel driver is RowBasisRep
// (row_basis.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/matrix.hpp"

namespace subspar {

/// How RowBasisRep builds the per-square row bases V_s (phase 1, §4.3).
enum class RowBasisScheme {
  /// §4.3.3 deterministic sampling: one random vector per interactive
  /// square, rank filled to the cap by a singular-value ratio test.
  kColumnSampling,
  /// Randomized block-Krylov sketching with per-block adaptive rank control
  /// (fewer black-box solves at equal accuracy; see rbk_basis.hpp).
  kBlockKrylov,
};

/// Knobs of the block-Krylov scheme (live in LowRankOptions::rbk; the
/// Gaussian draws reuse LowRankOptions::seed, so a request seed fixes the
/// whole construction bit-for-bit).
struct RbkOptions {
  /// Gaussian probe columns placed per source block per sketch round. The
  /// effective sketch width at a target square is block_size x |I_s| (~27x),
  /// so 1 already oversamples the <= 6-dimensional row bases heavily.
  std::size_t block_size = 1;
  /// Maximum response/refinement rounds after the initial sketch (>= 1).
  /// Blocks that certify early stop early; round counts are reported in the
  /// rank trajectory.
  std::size_t max_iters = 3;
  /// Per-block stop: accept a basis V once fresh responses S satisfy
  /// ||S - V V' S||_F <= target_tol * ||S||_F. The multilevel driver also
  /// accepts once a block's rank budget saturates (r == min(max_rank, n_s)):
  /// further rounds cannot widen the basis, and the capped sketch already
  /// matches the deterministic build's quality. The default is set from the
  /// observed interactive-block spectra (Fig. 4-3): blocks the rank budget
  /// can represent certify well below it in one round, so refinement rounds
  /// only fire on genuinely under-sampled blocks.
  double target_tol = 5e-3;
};

/// One sketch round of one quadtree level — the adaptive rank trajectory
/// reported through ExtractionReport.
struct RbkStep {
  int level = 0;                  ///< quadtree level
  int round = 0;                  ///< 0 = Gaussian sketch, >= 1 = Krylov round
  std::size_t probe_columns = 0;  ///< black-box solve cost of the round
  std::size_t active_blocks = 0;  ///< blocks still unconverged entering it
  std::size_t max_rank = 0;       ///< largest basis rank after the round
  double mean_rank = 0.0;         ///< mean basis rank after the round
  double max_residual = 0.0;      ///< worst certification residual observed
};

/// Certification residual ||S - V V' S||_F / ||S||_F of fresh samples S
/// against an orthonormal basis V (0 when S is all-zero; 1 when V is empty
/// and S is not).
double rbk_subspace_residual(const Matrix& v, const Matrix& samples);

/// A seeded rows x cols standard-normal block, QR re-orthonormalized when
/// it is (weakly) tall so probe columns carry balanced response energy.
Matrix rbk_gaussian_probes(std::size_t rows, std::size_t cols, std::uint64_t seed);

/// Deterministic per-(seed, level, round, block) stream seed, independent
/// of which other blocks participate in the round.
std::uint64_t rbk_stream_seed(std::uint64_t seed, int level, int round, int ix, int iy);

}  // namespace subspar
