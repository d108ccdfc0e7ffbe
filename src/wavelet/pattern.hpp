// The conservative sparsity pattern of G_ws (§3.5).
//
// Two fast-decaying basis vectors are assumed to interact negligibly exactly
// when their squares are well-separated under the cross-level rule of
// QuadTree; root-level leftover (slow-decaying) interactions are never
// dropped. Shared by the wavelet and low-rank sparsifiers — the fine-to-
// coarse sweep of §4.4 keeps the same "local" interactions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"
#include "wavelet/transform_basis.hpp"

namespace subspar {

class WaveletPattern {
 public:
  explicit WaveletPattern(const TransformBasis& basis) : basis_(&basis) {}

  /// True if entry (i, j) of G_w is kept under the conservative assumption.
  bool allowed(std::size_t i, std::size_t j) const;

  /// Masks a dense transformed matrix to the allowed pattern (the reference
  /// n-solve path against which combine-solves extraction is validated).
  SparseMatrix mask(const Matrix& gw) const;

  /// Number of allowed entries (the nnz of an exact-arithmetic G_ws).
  std::size_t count_allowed() const;

 private:
  const TransformBasis* basis_;
};

/// Accumulates measurements of entries of a symmetric matrix; entries
/// estimated from both directions (i response to j, j response to i) are
/// averaged, preserving symmetry of the assembled result. Measurements are
/// kept as flat (entry, value) records until build().
class SymmetricEntryAccumulator {
 public:
  explicit SymmetricEntryAccumulator(std::size_t n) : n_(n) {}

  void record(std::size_t i, std::size_t j, double v) {
    records_.push_back({std::min(i, j) * n_ + std::max(i, j), v});
  }

  /// Assembles the averaged entries and releases the records. The stable
  /// sort keeps each entry's measurements in record order, so every sum is
  /// the same sequence of additions as accumulating them in place.
  SparseMatrix build() {
    std::stable_sort(records_.begin(), records_.end(),
                     [](const Record& a, const Record& b) { return a.key < b.key; });
    SparseBuilder builder(n_, n_);
    for (std::size_t r = 0; r < records_.size();) {
      const std::size_t key = records_[r].key;
      double sum = 0.0;
      std::size_t count = 0;
      for (; r < records_.size() && records_[r].key == key; ++r, ++count) sum += records_[r].value;
      const std::size_t i = key / n_, j = key % n_;
      const double v = sum / static_cast<double>(count);
      builder.add(i, j, v);
      if (i != j) builder.add(j, i, v);
    }
    std::vector<Record>().swap(records_);
    return SparseMatrix(builder);
  }

 private:
  struct Record {
    std::size_t key;  ///< min(i, j) * n + max(i, j)
    double value;
  };
  std::size_t n_;
  std::vector<Record> records_;
};

/// All non-empty squares in the subtree rooted at `t` (including t), i.e.
/// its descendants at every finer level.
std::vector<SquareId> subtree_squares(const QuadTree& tree, const SquareId& t);

/// Keeps the `target_nnz` largest-magnitude entries of a symmetric sparse
/// matrix (threshold chosen by order statistics — the paper's binary search
/// reduced to a selection). Symmetric pairs are kept or dropped together.
SparseMatrix threshold_to_nnz(const SparseMatrix& a, std::size_t target_nnz);

}  // namespace subspar
