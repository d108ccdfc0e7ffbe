// Phase 1 of the low-rank method: the multilevel row-basis representation
// (§4.3), built coarse-to-fine from O(log n) black-box solves.
//
// Per square s the interaction G_{I_s, s} with its interactive region is
// numerically low-rank (Fig. 4-3). A row basis V_s (<= 6 columns) is
// recovered from the SVD of responses at s to random sample vectors placed
// in the squares of I_s (§4.3.3), and the responses (G_{P_s, s} V_s) to the
// basis itself are recorded over the local-plus-interactive region P_s.
// Responses on finer levels are never solved directly: a voltage with
// support in s splits into its projection onto the parent row basis
// (answered by the parent-level representation) and an orthogonal remainder
// in (W_p), whose responses combine-solve safely (eqs. 4.22-4.24, Fig. 4-7).
// The finest level stores the exact-local blocks G^(f)_{L_s, s} (eq. 4.26).
//
// The resulting representation applies G in O(n log n) (§4.3.2) and feeds
// the fine-to-coarse sweep of phase 2.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "geometry/quadtree.hpp"
#include "linalg/matrix.hpp"
#include "lowrank/rbk_basis.hpp"
#include "substrate/solver.hpp"

namespace subspar {

struct LowRankOptions {
  /// Phase-1 row-basis truncation: singular values >= sigma_rel_tol *
  /// sigma_max count. The paper quotes 1/100; because the interactive-block
  /// spectra decay like Fig. 4-3, a tighter tolerance fills the max_rank
  /// budget at negligible extra cost and buys ~30x lower representation
  /// error, so that is the default here (ablated in bench/ablation_rank).
  /// Both schemes rank their row bases with this one test; kBlockKrylov
  /// decides when to stop refining from rbk.target_tol.
  double sigma_rel_tol = 1e-4;
  /// Row-basis width cap (paper: 6, matching the p = 2 moment count).
  std::size_t max_rank = 6;
  /// Phase-2 U/T split threshold (eq. 4.27): the paper's 1/100 keeps the
  /// slow-decaying leftovers lean, which controls the density of the
  /// root-level rows of G_w.
  double u_sigma_rel_tol = 1e-2;
  /// Seed for the random sample vectors of §4.3.3 and the RBK Gaussian
  /// probes (runs are deterministic for a fixed seed either way).
  std::uint64_t seed = 12345;
  /// How the per-square row bases are built: the paper's deterministic
  /// column sampling, or randomized block-Krylov sketching with adaptive
  /// rank control (fewer black-box solves; see lowrank/rbk_basis.hpp).
  RowBasisScheme basis = RowBasisScheme::kColumnSampling;
  /// Knobs of the kBlockKrylov scheme (ignored by kColumnSampling).
  RbkOptions rbk;
};

/// The multilevel row-basis representation of G (phase 1, §4.3). Building it
/// runs the whole coarse-to-fine construction against the black-box solver.
class RowBasisRep {
 public:
  /// Builds the representation; `tree` must outlive this object.
  RowBasisRep(const SubstrateSolver& solver, const QuadTree& tree, LowRankOptions options = {});

  /// The contact quadtree the representation was built over.
  const QuadTree& tree() const { return *tree_; }
  /// The options the representation was built with.
  const LowRankOptions& options() const { return options_; }
  /// Black-box solves consumed by the construction.
  long solves() const { return solves_; }
  /// Adaptive rank trajectory of the kBlockKrylov scheme: one entry per
  /// (level, sketch round). Empty for kColumnSampling builds.
  const std::vector<RbkStep>& trajectory() const { return trajectory_; }
  /// Squares whose kBlockKrylov certification never passed within
  /// rbk.max_iters rounds and that fell back to the deterministic
  /// one-probe-per-source sampling basis (rounds max_iters+1/+2 in the
  /// trajectory). 0 on a healthy build and always 0 for kColumnSampling.
  long rbk_fallback_squares() const { return rbk_fallback_squares_; }

  /// Approximate G v through the multilevel representation (§4.3.2): the
  /// apply_block walks of the level-2 squares, which cover every square once.
  Vector apply(const Vector& v) const;

  /// Row-map entry of a contact that apply_block does not write.
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  /// Adds the approximate response G X to `out` for a block X whose columns
  /// are supported on square s (rows ordered like contacts(s)). Only the
  /// eq. 4.16 source terms of s and the squares below it are walked; the
  /// terms of the ancestors of s land in their interactive squares only, so
  /// the result equals apply() on the contacts of the local squares of s
  /// (on every contact for a level-2 s). Contact c accumulates into row
  /// row_of[c] of `out`; a destination square whose contacts map to kNoRow
  /// is skipped, so callers map or skip whole squares.
  void apply_block(const SquareId& s, const Matrix& x, const std::vector<std::size_t>& row_of,
                   Matrix& out) const;

  /// Row basis V_s (rows ordered like contacts(s)).
  const Matrix& v(const SquareId& s) const;
  /// Approximate response block (G_{q, s} V_s)^(r), rows ordered like
  /// contacts(q); q must be in P_s.
  const Matrix& response(const SquareId& s, const SquareId& q) const;
  /// True when a response block (G_{q, s} V_s)^(r) was recorded for (s, q).
  bool has_response(const SquareId& s, const SquareId& q) const;
  /// Finest-level orthogonal complement W_s of V_s.
  const Matrix& finest_w(const SquareId& s) const;
  /// Assembled finest-level local block G^(f)_{q, s} (q in L_s).
  const Matrix& finest_local_g(const SquareId& q, const SquareId& s) const;

  /// Sorted contact ids of a square (shared row ordering of all blocks).
  const std::vector<std::size_t>& contacts(const SquareId& s) const;

 private:
  struct SquareRep {
    Matrix v;
    std::map<SquareId, Matrix> response;
  };

  // Per-square responses of one "batch" of vectors, stored over the local
  // squares of the parent (which cover P_s).
  using ResponseBlocks = std::map<SquareId, Matrix>;
  /// Per-square voltage batches of one level (columns over contacts(s)). At
  /// level 2 the solve columns follow this order.
  using Batches = std::vector<std::pair<SquareId, Matrix>>;
  /// Reads the response of square t's batch on the contacts of square q
  /// (rows ordered like contacts(q), one column per batch column).
  using BlockFn = std::function<Matrix(const SquareId& t, const SquareId& q)>;

  /// The column-sampling build of one level (§4.3.3): one random sample
  /// vector per square, the row basis from the SVD of the sampled
  /// interactions, then the responses to it.
  void build_level(const SubstrateSolver& solver, int level);
  /// The block-Krylov build of one level (rbk_basis.hpp): Gaussian sketch
  /// round for squares above the rank cap, then adaptive
  /// probe/certify/refine rounds that double as the basis-response
  /// recording pass, then the per-square fallback.
  void build_rbk_level(const SubstrateSolver& solver, int level);
  /// The finest-level W responses and local blocks G^(f)_{L_s, s} (eq. 4.26).
  void build_finest(const SubstrateSolver& solver);

  /// Responses to per-square batches of one level: direct solves at level 2,
  /// the splitting method below it.
  BlockFn respond(const SubstrateSolver& solver, int level, const Batches& batches) const;
  /// Stores V_s = basis and its responses over P_s, read from `block`.
  void record(const SquareId& s, Matrix basis, const BlockFn& block);
  /// Sample sources of a square: its interactive region, with the level-2
  /// degenerate-layout fallback to every non-local square.
  std::vector<SquareId> sample_sources(const SquareId& s) const;
  /// P_s: the local squares of s followed by its interactive squares.
  std::vector<SquareId> local_and_interactive(const SquareId& s) const;
  /// Row basis from sampled responses: the leading left singular vectors,
  /// ranked by sigma_rel_tol and capped at max_rank.
  Matrix svd_basis(const Matrix& samples) const;

  /// The splitting method (§4.3.3): responses to per-square column batches
  /// x_s (columns over contacts(s), level `level` >= 3), each returned over
  /// the local squares of its parent. Uses the parent-level representation
  /// plus combine-solves on the orthogonal parts.
  std::map<SquareId, ResponseBlocks> split_responses(const SubstrateSolver& solver, int level,
                                                     const Batches& batches) const;

  const QuadTree* tree_;
  LowRankOptions options_;
  long solves_ = 0;
  long rbk_fallback_squares_ = 0;
  std::vector<RbkStep> trajectory_;
  std::map<SquareId, SquareRep> reps_;
  std::map<SquareId, Matrix> finest_w_;
  std::map<std::pair<SquareId, SquareId>, Matrix> finest_g_;  // key (q, s)
};

/// Positions of the (sorted) `sub` ids within the (sorted) `super` ids.
std::vector<std::size_t> positions_in(const std::vector<std::size_t>& sub,
                                      const std::vector<std::size_t>& super);

}  // namespace subspar
