// Low-rank G_w assembly (§4.2): the last step after phase 1 (row basis)
// and phase 2 (fine-to-coarse sweep), filling G_w on the conservative
// pattern. The Extractor (subspar/extraction.hpp) runs the three in order.
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

#include "lowrank/fine_to_coarse.hpp"
#include "lowrank/row_basis.hpp"
#include "wavelet/pattern.hpp"

namespace subspar {

/// G_w assembly given an existing representation and basis.
SparseMatrix lowrank_fill_gw(const RowBasisRep& rep, const LowRankBasis& basis);

}  // namespace subspar
