// Public header: the substrate-solver factory.
//
// Callers name a discretization instead of hardwiring a concrete type:
//
//   auto solver = make_solver(SolverKind::kSurface, layout, stack);
//
// returns the black-box SubstrateSolver interface, so switching between the
// surface eigenfunction solver, the volume finite-difference solver, and
// the multigrid-preconditioned variant is a one-enum change.
#pragma once

#include <memory>

#include "geometry/layout.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/fd_solver.hpp"
#include "substrate/solver.hpp"
#include "substrate/stack.hpp"

namespace subspar {

/// The built-in black-box discretizations of the substrate operator G.
enum class SolverKind {
  kSurface,    ///< eigenfunction (DCT) surface solver (§2.3) — fast, layered stacks only
  kFd,         ///< volume finite-difference solver (§2.2) — handles wells, any stack
  kMultigrid,  ///< finite-difference solver with the geometric-multigrid preconditioner
};

/// Union of per-kind construction options. Only the member matching the
/// requested kind is consulted: `surface` for kSurface, `fd` for kFd and
/// kMultigrid (whose preconditioner choice is overridden to multigrid).
///
/// Every option that selects the discretization or the solve (grid
/// spacing, wells, preconditioner, tolerances) is digested into the
/// solver's cache_tag(), so differently configured solvers never share
/// ModelCache entries.
struct SolverConfig {
  SurfaceSolverOptions surface{};
  FdSolverOptions fd{};
};

/// Stable name of a built-in kind ("surface", "fd", "multigrid").
const char* solver_kind_name(SolverKind kind);

/// Constructs a solver of the given kind over (layout, stack).
std::unique_ptr<SubstrateSolver> make_solver(SolverKind kind, const Layout& layout,
                                             const SubstrateStack& stack,
                                             const SolverConfig& config = {});

}  // namespace subspar
