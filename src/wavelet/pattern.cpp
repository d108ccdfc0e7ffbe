#include "wavelet/pattern.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace subspar {

bool WaveletPattern::allowed(std::size_t i, std::size_t j) const {
  const auto& cols = basis_->columns();
  SUBSPAR_REQUIRE(i < cols.size() && j < cols.size());
  const BasisColumn& a = cols[i];
  const BasisColumn& b = cols[j];
  if (!a.vanishing || !b.vanishing) return true;  // root V rows/cols all kept
  return !basis_->tree().well_separated(a.square, b.square);
}

SparseMatrix SymmetricEntryAccumulator::build() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const Record& a, const Record& b) { return a.key < b.key; });
  // Average each entry in place and count its row's entries: key (i, j)
  // with i <= j is entry (i, j) of row i, and, off the diagonal, entry
  // (j, i) of row j, which lies left of that row's diagonal.
  std::vector<std::size_t> rowptr(n_ + 1, 0), lower(n_, 0);
  std::size_t kept = 0;
  for (std::size_t r = 0; r < records_.size();) {
    const std::size_t key = records_[r].key;
    double sum = 0.0;
    std::size_t count = 0;
    for (; r < records_.size() && records_[r].key == key; ++r, ++count) sum += records_[r].value;
    const double v = sum / static_cast<double>(count);
    if (v == 0.0) continue;
    records_[kept++] = {key, v};
    const std::size_t i = key / n_, j = key % n_;
    ++rowptr[i + 1];
    if (i != j) {
      ++rowptr[j + 1];
      ++lower[j];
    }
  }
  records_.resize(kept);
  for (std::size_t i = 0; i < n_; ++i) rowptr[i + 1] += rowptr[i];
  // Keys ascend by (i, j), so each row's left-of-diagonal run (filled from
  // its start) and its diagonal-and-right run (filled after the left run)
  // both come out in ascending column order.
  std::vector<std::size_t> next_left(rowptr.begin(), rowptr.end() - 1), next_right(n_);
  for (std::size_t i = 0; i < n_; ++i) next_right[i] = rowptr[i] + lower[i];
  std::vector<std::size_t> colidx(rowptr.back());
  std::vector<double> val(rowptr.back());
  for (const Record& rec : records_) {
    const std::size_t i = rec.key / n_, j = rec.key % n_;
    colidx[next_right[i]] = j;
    val[next_right[i]++] = rec.value;
    if (i != j) {
      colidx[next_left[j]] = i;
      val[next_left[j]++] = rec.value;
    }
  }
  std::vector<Record>().swap(records_);
  return SparseMatrix::from_csr(n_, n_, std::move(rowptr), std::move(colidx), std::move(val));
}

std::vector<SquareId> subtree_squares(const QuadTree& tree, const SquareId& t) {
  std::vector<SquareId> out;
  out.push_back(t);
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (out[k].level >= tree.max_level()) continue;
    for (const SquareId& c : tree.children(out[k])) out.push_back(c);
  }
  return out;
}

SparseMatrix WaveletPattern::mask(const Matrix& gw) const {
  const std::size_t n = basis_->n();
  SUBSPAR_REQUIRE(gw.rows() == n && gw.cols() == n);
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (gw(i, j) != 0.0 && allowed(i, j)) b.add(i, j, gw(i, j));
  return SparseMatrix(b);
}

std::size_t WaveletPattern::count_allowed() const {
  const std::size_t n = basis_->n();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) count += allowed(i, j);
  return count;
}

SparseMatrix threshold_to_nnz(const SparseMatrix& a, std::size_t target_nnz) {
  if (a.nnz() <= target_nnz) return a;
  std::vector<double> mags;
  mags.reserve(a.nnz());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k)
      mags.push_back(std::abs(a.value(k)));
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(target_nnz),
                   mags.end(), std::greater<double>());
  const double cut = mags[target_nnz];
  SparseBuilder b(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k)
      if (std::abs(a.value(k)) > cut) b.add(i, a.col_index(k), a.value(k));
  return SparseMatrix(b);
}

}  // namespace subspar
