// The chunk scheduler behind both iterative solvers' solve_many.
//
// A batch of k right-hand sides is split into chunks of at most
// kMaxSolveBlock columns, and each chunk runs its own robust_pcg_block. The
// chunks share only read-only solver state, so they run concurrently as
// util/parallel tasks. Each writes only its own output columns and its own
// RobustSolveReport, and the reports are merged in chunk order, so the
// results and the diagnostics are bitwise the same at any SUBSPAR_THREADS.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "linalg/robust.hpp"
#include "substrate/solver.hpp"
#include "util/sync.hpp"

namespace subspar {

/// Widest column block fed to one pcg_block call: bounds the O(k^2 n) Gram
/// work and the O(k^3) small solves while keeping the spectrum deflation
/// that makes the blocked iteration converge in far fewer iterations. It is
/// part of the block-Krylov arithmetic: another width gives other bits.
inline constexpr std::size_t kMaxSolveBlock = 16;

/// A fallback factor (dense Cholesky, IC(0), ...) built on first use and
/// then shared read-only by every chunk. Concurrent chunks may need it at
/// once: the first builds it under the mutex and the others wait for it.
template <class T>
class LazyFactor {
 public:
  /// The factor, made by `build()` (returning std::unique_ptr<T>) on the
  /// first call.
  template <class Build>
  const T& get(const Build& build) SUBSPAR_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (!factor_) factor_ = build();
    return *factor_;
  }

 private:
  Mutex mutex_;
  std::unique_ptr<T> factor_ SUBSPAR_GUARDED_BY(mutex_);
};

/// Column-weighted PCG iteration count behind a solver's avg_iterations().
struct IterationTally {
  long column_iterations = 0;  ///< each chunk's iterations times its width
  long columns = 0;            ///< columns solved
  double average() const;
};

/// One chunk: solves batch columns [j0, j0 + kc), writes their outputs
/// (and nothing else shared), and fills `report`.
using SolveChunkFn =
    std::function<void(std::size_t j0, std::size_t kc, RobustSolveReport& report)>;

/// Runs `chunk` over the chunks of a k-column batch. With more than one
/// chunk each is one parallel_for task; a single chunk runs directly on the
/// caller, so its own operator and preconditioner fan-out keeps the pool.
/// Every chunk runs under the caller's cancel token and its own fault
/// stream (util/fault.hpp). The reports are then folded into `diag` and
/// `tally` in chunk order. If chunks throw, the chunks before the first
/// failing one are folded in and that chunk's exception is rethrown, as a
/// sequential loop over the chunks would.
void run_solve_chunks(std::size_t k, const SolveChunkFn& chunk, SolverDiagnostics& diag,
                      IterationTally& tally);

}  // namespace subspar
