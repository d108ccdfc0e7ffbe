// End-to-end low-rank sparsification (§4.2): phase 1 (row basis) + phase 2
// (fine-to-coarse sweep) + G_w assembly on the conservative pattern.
//
// G_w entries come from the phase-1 representation (eq. 4.16) applied to
// the columns of Q and projected onto the locally-interacting basis
// vectors; no additional black-box solves are consumed. The columns of one
// square are applied as a block: only the source terms of that square and
// the squares below it are walked (RowBasisRep::apply_block), responses are
// formed only on the contacts of its local squares (on every contact for
// the level-2 leftover columns), and each entry block is one small product
// W_sp' U per row square sp. With bounded ranks the walk of a square costs
// O(|contacts(s)|), so each level costs O(n) and the assembly O(n log n),
// against O(n^2) for one full apply per column.
#pragma once

#include <memory>

#include "lowrank/fine_to_coarse.hpp"
#include "lowrank/row_basis.hpp"
#include "wavelet/pattern.hpp"

namespace subspar {

struct LowRankExtraction {
  std::unique_ptr<RowBasisRep> rep;
  std::unique_ptr<LowRankBasis> basis;
  SparseMatrix gw;  ///< pattern-restricted transformed conductance matrix
  long solves = 0;  ///< black-box solves (all consumed in phase 1)
};

LowRankExtraction lowrank_extract(const SubstrateSolver& solver, const QuadTree& tree,
                                  LowRankOptions options = {});

/// G_w assembly given an existing representation and basis.
SparseMatrix lowrank_fill_gw(const RowBasisRep& rep, const LowRankBasis& basis);

}  // namespace subspar
