#include "subspar/solvers.hpp"

#include <stdexcept>

namespace subspar {

const char* solver_kind_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSurface:
      return "surface";
    case SolverKind::kFd:
      return "fd";
    case SolverKind::kMultigrid:
      return "multigrid";
  }
  throw std::invalid_argument("solver_kind_name: unknown SolverKind");
}

std::unique_ptr<SubstrateSolver> make_solver(SolverKind kind, const Layout& layout,
                                             const SubstrateStack& stack,
                                             const SolverConfig& config) {
  switch (kind) {
    case SolverKind::kSurface:
      return std::make_unique<SurfaceSolver>(layout, stack, config.surface);
    case SolverKind::kFd:
      return std::make_unique<FdSolver>(layout, stack, config.fd);
    case SolverKind::kMultigrid: {
      FdSolverOptions options = config.fd;
      options.precond = FdPreconditioner::kMultigrid;
      return std::make_unique<FdSolver>(layout, stack, options);
    }
  }
  throw std::invalid_argument("make_solver: unknown SolverKind");
}

}  // namespace subspar
