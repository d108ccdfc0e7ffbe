#include "lowrank/extract.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "util/check.hpp"

namespace subspar {

SparseMatrix lowrank_fill_gw(const RowBasisRep& rep, const LowRankBasis& basis) {
  const QuadTree& tree = rep.tree();
  const std::size_t n = basis.n();
  SUBSPAR_REQUIRE(basis.root_level() == 2);
  SymmetricEntryAccumulator acc(n);
  std::map<SquareId, std::vector<std::size_t>> leftover_cols;  // level-2 U columns
  for (const std::size_t k : basis.root_columns())
    leftover_cols[basis.columns()[k].square].push_back(k);
  std::vector<std::size_t> row_of(n, RowBasisRep::kNoRow);

  // Records the entries between the columns `rows` of square sp (block b)
  // and the columns `cols`, whose responses u are mapped by row_of.
  const auto record = [&](const SquareId& sp, const Matrix& b,
                          const std::vector<std::size_t>& rows, const Matrix& u,
                          const std::vector<std::size_t>& cols) {
    if (rows.empty()) return;
    const auto& ids = rep.contacts(sp);
    Matrix usp(ids.size(), u.cols());
    for (std::size_t i = 0; i < ids.size(); ++i)
      std::copy(u.row_ptr(row_of[ids[i]]), u.row_ptr(row_of[ids[i]]) + u.cols(), usp.row_ptr(i));
    const Matrix e = matmul_tn(b, usp);
    for (std::size_t a = 0; a < rows.size(); ++a)
      for (std::size_t c = 0; c < cols.size(); ++c) acc.record(rows[a], cols[c], e(a, c));
  };

  // Forms the responses to the columns `cols` of square s (block x) on the
  // contacts of the `region` squares only, and records their entries
  // against the T columns of every square below the region (and against
  // the U columns of the region squares when `with_leftovers`).
  const auto fill = [&](const SquareId& s, const Matrix& x, const std::vector<std::size_t>& cols,
                        const std::vector<SquareId>& region, bool with_leftovers) {
    std::size_t rows = 0;
    for (const SquareId& t : region)
      for (const std::size_t id : rep.contacts(t)) row_of[id] = rows++;
    Matrix u(rows, cols.size());
    rep.apply_block(s, x, row_of, u);
    for (const SquareId& t : region) {
      const auto it = leftover_cols.find(t);
      if (with_leftovers && it != leftover_cols.end())
        record(t, basis.square_basis(t).v, it->second, u, cols);
      for (const SquareId& sp : subtree_squares(tree, t))
        record(sp, basis.square_basis(sp).w, basis.w_columns(sp), u, cols);
    }
    for (const SquareId& t : region)
      for (const std::size_t id : rep.contacts(t)) row_of[id] = RowBasisRep::kNoRow;
  };

  // Level-2 leftover (U) columns: dense rows/columns of G_w, formed on
  // every contact.
  for (const auto& [s, cols] : leftover_cols)
    fill(s, basis.square_basis(s).v, cols, tree.squares(2), /*with_leftovers=*/true);

  // T columns: entries against T vectors of non-well-separated squares at
  // the same or finer levels (coarser-level entries come from symmetry),
  // formed on the contacts of the local squares.
  for (int lev = 2; lev <= tree.max_level(); ++lev) {
    for (const SquareId& s : tree.squares(lev)) {
      const auto& cols = basis.w_columns(s);
      if (cols.empty()) continue;
      fill(s, basis.square_basis(s).w, cols, tree.local(s), /*with_leftovers=*/false);
    }
  }
  return acc.build();
}

}  // namespace subspar
