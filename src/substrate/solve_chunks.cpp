#include "substrate/solve_chunks.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace subspar {
namespace {

void accumulate_diag(SolverDiagnostics& d, const RobustSolveReport& r) {
  d.iterations += static_cast<long>(r.iterations);
  d.max_iteration_hits += static_cast<long>(r.max_iteration_hits);
  d.restarts += static_cast<long>(r.restarts);
  d.tighter_restarts += static_cast<long>(r.tighter_restarts);
  d.direct_columns += static_cast<long>(r.direct_columns);
  d.nonfinite_recoveries += static_cast<long>(r.nonfinite_events);
  if (!r.clean) d.worst_residual = std::max(d.worst_residual, r.worst_residual);
}

}  // namespace

double IterationTally::average() const {
  return columns == 0 ? 0.0
                      : static_cast<double>(column_iterations) / static_cast<double>(columns);
}

void run_solve_chunks(std::size_t k, const SolveChunkFn& chunk, SolverDiagnostics& diag,
                      IterationTally& tally) {
  const std::size_t chunks = (k + kMaxSolveBlock - 1) / kMaxSolveBlock;
  std::vector<RobustSolveReport> reports(chunks);
  std::vector<std::exception_ptr> errors(chunks);
  const CancelToken* const token = current_cancel_token();
  const std::uint64_t batch = fault_next_batch();
  const auto task = [&](std::size_t c) {
    const CancelScope cancel(token);
    const FaultStreamScope faults(batch, c);
    const std::size_t j0 = c * kMaxSolveBlock;
    try {
      chunk(j0, std::min(kMaxSolveBlock, k - j0), reports[c]);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  // parallel_for(1, ...) would mark the caller as inside a parallel region
  // and run the chunk's own SpMM / preconditioner / operator fan-out inline.
  if (chunks == 1) {
    task(0);
  } else {
    parallel_for(chunks, task);
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
    const std::size_t kc = std::min(kMaxSolveBlock, k - c * kMaxSolveBlock);
    accumulate_diag(diag, reports[c]);
    tally.column_iterations += static_cast<long>(reports[c].iterations) * static_cast<long>(kc);
    tally.columns += static_cast<long>(kc);
  }
}

}  // namespace subspar
