#include "substrate/fd_solver.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/ic0.hpp"
#include "linalg/iterative.hpp"
#include "linalg/reorder.hpp"
#include "linalg/robust.hpp"
#include "linalg/sparse.hpp"
#include "substrate/multigrid.hpp"
#include "substrate/solve_chunks.hpp"
#include "transform/poisson.hpp"
#include "util/check.hpp"

namespace subspar {
namespace {

/// The Table 2.1 fast-Poisson preconditioner behind the blockwise
/// Preconditioner interface: column fan-out over the pool, per-column
/// arithmetic identical to a single solve.
class FastPoissonPreconditioner final : public Preconditioner {
 public:
  explicit FastPoissonPreconditioner(PoissonGrid grid) : fp_(std::move(grid)) {}
  Matrix apply_many(const Matrix& r) const override { return fp_.solve_many(r); }

 private:
  FastPoisson3D fp_;
};

/// Size gate for the dense direct-solve fallback (O(n^2) memory, O(n^3)
/// factorization over the full grid).
constexpr std::size_t kMaxDirectDim = 4096;

/// Tighter-preconditioner stage of the fallback chain: an RCM-reordered
/// IC(0) factor built lazily on first use, so healthy runs under the cheap
/// fast-Poisson / multigrid preconditioners never pay for it.
class LazyIc0Preconditioner final : public Preconditioner {
 public:
  explicit LazyIc0Preconditioner(const SparseMatrix& a) : a_(&a) {}
  Matrix apply_many(const Matrix& r) const override {
    return inner_
        .get([&] { return std::make_unique<Ic0Preconditioner>(*a_, rcm_ordering(*a_)); })
        .apply_many(r);
  }

 private:
  const SparseMatrix* a_;
  mutable LazyFactor<Ic0Preconditioner> inner_;
};

}  // namespace

struct FdSolver::Impl {
  Layout layout;
  SubstrateStack stack;
  FdSolverOptions options;

  std::size_t nx = 0, ny = 0, nz = 0;
  double h = 0.0;
  double g_contact = 0.0;  ///< ghost-resistor conductance sigma_top * h

  SparseMatrix a;  // grid-of-resistors Laplacian
  // The sparse engine's preconditioner branch (fast-Poisson / batched
  // multigrid / RCM-reordered level-scheduled IC(0)); null = plain CG.
  // The multigrid hierarchy outlives its non-owning preconditioner wrapper.
  std::unique_ptr<GridMultigrid> multigrid;
  std::unique_ptr<Preconditioner> precond;
  // Fallback-chain stages: the tighter preconditioner (lazy IC(0); null when
  // IC(0) already is the primary) and the size-gated dense direct factor.
  std::unique_ptr<Preconditioner> tighter;
  mutable LazyFactor<Cholesky> direct_factor;

  // Top-plane node indices per contact (into the full grid vector).
  std::vector<std::vector<std::size_t>> contact_nodes;

  mutable IterationTally tally;

  Impl(const Layout& l, const SubstrateStack& s, FdSolverOptions o)
      : layout(l), stack(s), options(o) {}

  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return x + nx * (y + ny * z);
  }

  // Dense direct fallback: the sparse Laplacian densified and
  // Cholesky-factored once, reused by every later fallback.
  Matrix direct_solve(const Matrix& b) const {
    return direct_factor
        .get([&] {
          const std::size_t n = a.rows();
          Matrix dense(n, n);
          for (std::size_t i = 0; i < n; ++i)
            for (std::size_t t = a.row_begin(i); t < a.row_end(i); ++t)
              dense(i, a.col_index(t)) = a.value(t);
          return std::make_unique<Cholesky>(dense);
        })
        .solve(b);
  }

  // One right-hand-side chunk through the robust fallback chain: pcg_block,
  // then restarts (the last with the lazy IC(0)), then the size-gated dense
  // direct solve. Throws SolverConvergenceError when all of it fails.
  Matrix robust_chunk(const Matrix& b, RobustSolveReport& report) const {
    const LinearOpMany op = [&](const Matrix& p) {
      Matrix y = a.apply_many(p);
      fault_corrupt(FaultSite::kSolverApply, y);
      return y;
    };
    const DirectSolveFn direct =
        b.rows() <= kMaxDirectDim
            ? DirectSolveFn([this](const Matrix& bb) { return direct_solve(bb); })
            : DirectSolveFn();
    return robust_pcg_block(
        op, b,
        {.iter = {.rel_tol = options.rel_tol, .max_iterations = options.max_iterations}},
        &report, precond.get(), tighter.get(), direct);
  }

  // A single column skips the block machinery (k x k Gram solves, deflation
  // bookkeeping, Matrix temporaries) and runs the scalar-recurrence pcg() —
  // substantially cheaper per iteration at equal arithmetic per operator
  // apply. A failed column escalates into the robust chain; `report` sums
  // both attempts.
  Matrix solve_column(const Matrix& b, RobustSolveReport& report) const {
    IterStats stats;
    const LinearOp op = [&](const Vector& p) {
      Vector y = a.apply(p);
      fault_corrupt(FaultSite::kSolverApply, y);
      return y;
    };
    const LinearOp pre = precond
        ? LinearOp([&](const Vector& r) { return precond->apply(r); })
        : LinearOp();
    Vector xv = pcg(
        op, b.col(0), {.rel_tol = options.rel_tol, .max_iterations = options.max_iterations},
        &stats, pre);
    const bool corrupted = fault_corrupt(FaultSite::kSolverSolve, xv);
    bool finite = true;
    for (std::size_t i = 0; i < xv.size() && finite; ++i) finite = std::isfinite(xv[i]);
    if (stats.converged && !corrupted && finite) {
      report.iterations = stats.iterations;
      Matrix x(xv.size(), 1);
      x.set_col(0, xv);
      return x;
    }
    Matrix x = robust_chunk(b, report);
    report.iterations += stats.iterations;
    if (!stats.converged) ++report.max_iteration_hits;
    if (!finite) ++report.nonfinite_events;
    return x;
  }

  // Right-hand-side columns [j0, j0 + kc) of the volume system: each
  // contact's ghost resistors inject g_contact * V into its top-plane
  // nodes (shared by the single-column and blocked paths).
  Matrix assemble_rhs(const Matrix& contact_voltages, std::size_t j0, std::size_t kc) const {
    Matrix b(nx * ny * nz, kc);
    for (std::size_t j = 0; j < kc; ++j)
      for (std::size_t c = 0; c < contact_nodes.size(); ++c)
        for (const std::size_t node : contact_nodes[c])
          b(node, j) += g_contact * contact_voltages(c, j0 + j);
    return b;
  }

  // The volume solution of one contact-voltage column.
  Vector solve_volume(const Matrix& contact_voltages, SolverDiagnostics& d) const {
    Matrix x;
    run_solve_chunks(
        1,
        [&](std::size_t, std::size_t, RobustSolveReport& report) {
          x = solve_column(assemble_rhs(contact_voltages, 0, 1), report);
        },
        d, tally);
    return x.col(0);
  }

  // Shared solve core: contact-voltage columns -> contact-current columns,
  // one blocked PCG per chunk of <= kMaxSolveBlock columns (one scalar PCG
  // for a one-column batch). The operator is one row-partitioned SpMM per
  // iteration; the preconditioner one blockwise apply_many. Each chunk reads
  // its currents off its own volume solution and drops it.
  Matrix solve_currents(const Matrix& contact_voltages, SolverDiagnostics& d) const {
    const std::size_t k = contact_voltages.cols();
    Matrix currents(contact_nodes.size(), k);
    const auto chunk = [&](std::size_t j0, std::size_t kc, RobustSolveReport& report) {
      const Matrix b = assemble_rhs(contact_voltages, j0, kc);
      const Matrix x = k == 1 ? solve_column(b, report) : robust_chunk(b, report);
      for (std::size_t j = 0; j < kc; ++j)
        for (std::size_t c = 0; c < contact_nodes.size(); ++c) {
          double s = 0.0;
          for (const std::size_t node : contact_nodes[c])
            s += g_contact * (contact_voltages(c, j0 + j) - x(node, j));
          currents(c, j0 + j) = s;
        }
    };
    run_solve_chunks(k, chunk, d, tally);
    return currents;
  }
};

FdSolver::FdSolver(const Layout& layout, const SubstrateStack& stack, FdSolverOptions options)
    : impl_(std::make_unique<Impl>(layout, stack, options)) {
  Impl& im = *impl_;
  SUBSPAR_REQUIRE(layout.n_contacts() > 0);
  SUBSPAR_REQUIRE(options.grid_h > 0.0);
  const double h = options.grid_h;
  im.h = h;

  const double width = layout.width(), height = layout.height(), depth = stack.depth();
  im.nx = static_cast<std::size_t>(std::round(width / h));
  im.ny = static_cast<std::size_t>(std::round(height / h));
  im.nz = static_cast<std::size_t>(std::round(depth / h));
  SUBSPAR_REQUIRE(im.nz >= 2);
  SUBSPAR_REQUIRE(std::abs(static_cast<double>(im.nx) * h - width) < 1e-9 * width);
  SUBSPAR_REQUIRE(is_power_of_two(im.nx) && is_power_of_two(im.ny));

  // Plane conductivities: node plane z (0 = bottom) sits at depth
  // d - (z + 1/2) h below the surface.
  std::vector<double> sigma(im.nz);
  for (std::size_t z = 0; z < im.nz; ++z)
    sigma[z] = stack.conductivity_at_depth(depth - (static_cast<double>(z) + 0.5) * h);
  const double sigma_top = sigma[im.nz - 1];
  im.g_contact = (options.ghost_half_spacing ? 2.0 : 1.0) * sigma_top * h;

  std::vector<double> gz(im.nz - 1);
  for (std::size_t z = 0; z + 1 < im.nz; ++z)
    // Two h/2 resistors in series across the plane gap (Fig. 2-2).
    gz[z] = 2.0 * h * sigma[z] * sigma[z + 1] / (sigma[z] + sigma[z + 1]);

  const bool grounded = stack.backplane() == Backplane::kGrounded;
  const double g_bottom = grounded ? 2.0 * sigma[0] * h : 0.0;

  // Contact nodes: panels -> top-plane node ranges (node x covers physical
  // [x h, (x+1) h), matching the panel grid when grid_h == panel_size).
  const double hp = layout.panel_size();
  std::vector<char> is_contact(im.nx * im.ny, 0);
  for (std::size_t c = 0; c < layout.n_contacts(); ++c) {
    std::vector<std::size_t> nodes;
    for (const auto& r : layout.contact(c).parts) {
      const long x0 = std::lround(static_cast<double>(r.x0) * hp / h);
      const long x1 = std::lround(static_cast<double>(r.x1()) * hp / h);
      const long y0 = std::lround(static_cast<double>(r.y0) * hp / h);
      const long y1 = std::lround(static_cast<double>(r.y1()) * hp / h);
      for (long y = y0; y < y1; ++y)
        for (long x = x0; x < x1; ++x) {
          SUBSPAR_REQUIRE(x >= 0 && y >= 0 && x < static_cast<long>(im.nx) &&
                          y < static_cast<long>(im.ny));
          nodes.push_back(im.index(static_cast<std::size_t>(x), static_cast<std::size_t>(y),
                                   im.nz - 1));
          is_contact[static_cast<std::size_t>(x) + im.nx * static_cast<std::size_t>(y)] = 1;
        }
    }
    SUBSPAR_REQUIRE(!nodes.empty());  // grid too coarse for this contact otherwise
    im.contact_nodes.push_back(std::move(nodes));
  }

  // Wells: etched-away grid nodes (§2.1). Removed nodes keep identity rows
  // so the system stays SPD with a fixed size; all resistors touching them
  // are omitted, which is exactly a Neumann boundary around the cavity.
  const std::size_t n = im.nx * im.ny * im.nz;
  std::vector<char> removed(n, 0);
  for (const SubstrateWell& w : options.wells) {
    SUBSPAR_REQUIRE(w.width > 0.0 && w.height > 0.0 && w.depth > 0.0);
    SUBSPAR_REQUIRE(w.depth < depth);
    for (std::size_t z = 0; z < im.nz; ++z) {
      const double node_depth = depth - (static_cast<double>(z) + 0.5) * h;
      if (node_depth >= w.depth) continue;  // below the cavity floor
      for (std::size_t y = 0; y < im.ny; ++y) {
        for (std::size_t x = 0; x < im.nx; ++x) {
          const double cx = (static_cast<double>(x) + 0.5) * h;
          const double cy = (static_cast<double>(y) + 0.5) * h;
          if (cx >= w.x0 && cx <= w.x0 + w.width && cy >= w.y0 && cy <= w.y0 + w.height)
            removed[im.index(x, y, z)] = 1;
        }
      }
    }
  }
  for (const auto& nodes : im.contact_nodes)
    for (const std::size_t node : nodes)
      SUBSPAR_REQUIRE(!removed[node]);  // wells may not swallow contacts

  // Assemble the grid-of-resistors matrix (eq. 2.9).
  SparseBuilder bld(n, n);
  for (std::size_t z = 0; z < im.nz; ++z) {
    const double gl = sigma[z] * h;
    for (std::size_t y = 0; y < im.ny; ++y) {
      for (std::size_t x = 0; x < im.nx; ++x) {
        const std::size_t i = im.index(x, y, z);
        if (removed[i]) {
          bld.add(i, i, 1.0);  // decoupled identity row
          continue;
        }
        double diag = 0.0;
        auto stamp = [&](std::size_t j, double g) {
          if (removed[j]) return;  // omitted resistor = Neumann cavity wall
          bld.add(i, j, -g);
          diag += g;
        };
        if (x > 0) stamp(im.index(x - 1, y, z), gl);
        if (x + 1 < im.nx) stamp(im.index(x + 1, y, z), gl);
        if (y > 0) stamp(im.index(x, y - 1, z), gl);
        if (y + 1 < im.ny) stamp(im.index(x, y + 1, z), gl);
        if (z > 0) stamp(im.index(x, y, z - 1), gz[z - 1]);
        if (z + 1 < im.nz) stamp(im.index(x, y, z + 1), gz[z]);
        if (z == 0 && grounded) diag += g_bottom;
        if (z == im.nz - 1 && is_contact[x + im.nx * y]) diag += im.g_contact;
        // A fully isolated interior node (possible only in pathological well
        // shapes) degenerates to an identity row.
        bld.add(i, i, diag > 0.0 ? diag : 1.0);
      }
    }
  }
  im.a = SparseMatrix(bld);
  // The fallback chain's tighter preconditioner; pointless when IC(0) is
  // already the primary. Lazy: the factor is only built if a solve fails.
  if (options.precond != FdPreconditioner::kIncompleteCholesky)
    im.tighter = std::make_unique<LazyIc0Preconditioner>(im.a);

  // Preconditioner setup: every branch is a Preconditioner instance the
  // blocked PCG applies to whole residual blocks.
  switch (options.precond) {
    case FdPreconditioner::kNone:
      break;
    case FdPreconditioner::kIncompleteCholesky:
      im.precond = std::make_unique<Ic0Preconditioner>(
          im.a, options.reorder == SparseReorder::kRcm ? rcm_ordering(im.a)
                                                       : std::vector<std::size_t>{});
      break;
    case FdPreconditioner::kMultigrid: {
      GridSpec spec;
      spec.nx = im.nx;
      spec.ny = im.ny;
      spec.nz = im.nz;
      spec.h = h;
      spec.sigma = sigma;
      spec.g_top.assign(im.nx * im.ny, 0.0);
      for (std::size_t k = 0; k < im.nx * im.ny; ++k)
        if (is_contact[k]) spec.g_top[k] = im.g_contact;
      spec.g_bottom = g_bottom;
      if (!options.wells.empty()) spec.removed = removed;
      MultigridOptions mg_options;
      mg_options.smoother = options.mg_smoother;
      mg_options.smoothing_sweeps = options.mg_smoothing_sweeps;
      im.multigrid = std::make_unique<GridMultigrid>(std::move(spec), mg_options);
      im.precond = std::make_unique<MultigridPreconditioner>(*im.multigrid);
      break;
    }
    default: {
      double p = 1.0;
      if (options.precond == FdPreconditioner::kFastNeumann) p = 0.0;
      if (options.precond == FdPreconditioner::kFastAreaWeighted) {
        double contact_area = 0.0;
        for (std::size_t c = 0; c < layout.n_contacts(); ++c)
          contact_area += layout.contact_area(c);
        p = contact_area / (width * height);
      }
      PoissonGrid pg;
      pg.nx = im.nx;
      pg.ny = im.ny;
      pg.nz = im.nz;
      pg.lateral_g.resize(im.nz);
      for (std::size_t z = 0; z < im.nz; ++z) pg.lateral_g[z] = sigma[z] * h;
      pg.vertical_g = gz;
      pg.top_g = p * im.g_contact;
      pg.bottom_g = g_bottom;
      im.precond = std::make_unique<FastPoissonPreconditioner>(std::move(pg));
      break;
    }
  }
}

FdSolver::~FdSolver() = default;

std::size_t FdSolver::n_contacts() const { return impl_->layout.n_contacts(); }

std::string FdSolver::cache_tag() const {
  const FdSolverOptions& o = impl_->options;
  char buf[160];
  // The sparse-engine knobs (reorder, multigrid smoother/sweeps) cannot
  // change the operator G beyond solver tolerance, but they select
  // different preconditioners — digest them so perf A/B runs get distinct
  // cache entries too. The SIMD backend is deliberately NOT part of the
  // tag (all backends agree to solver tolerance).
  std::snprintf(buf, sizeof buf, "|%a|%d|%a|%zu|%d|%d|%d|%d", o.grid_h,
                static_cast<int>(o.precond), o.rel_tol, o.max_iterations,
                o.ghost_half_spacing ? 1 : 0, static_cast<int>(o.reorder),
                static_cast<int>(o.mg_smoother), o.mg_smoothing_sweeps);
  std::string tag = name() + buf;
  for (const SubstrateWell& w : o.wells) {
    std::snprintf(buf, sizeof buf, "|%a,%a,%a,%a,%a", w.x0, w.y0, w.width, w.height, w.depth);
    tag += buf;
  }
  return tag + "|" + substrate_fingerprint(impl_->layout, impl_->stack);
}

std::size_t FdSolver::grid_nodes() const { return impl_->nx * impl_->ny * impl_->nz; }

double FdSolver::avg_iterations() const { return impl_->tally.average(); }

void FdSolver::reset_iteration_stats() const { impl_->tally = IterationTally{}; }

Vector FdSolver::solve_volume(const Vector& contact_voltages) const {
  SUBSPAR_REQUIRE(contact_voltages.size() == n_contacts());
  Matrix v(contact_voltages.size(), 1);
  v.set_col(0, contact_voltages);
  return impl_->solve_volume(v, diag());
}

Vector FdSolver::do_solve(const Vector& contact_voltages) const {
  Matrix v(contact_voltages.size(), 1);
  v.set_col(0, contact_voltages);
  return impl_->solve_currents(v, diag()).col(0);
}

Matrix FdSolver::do_solve_many(const Matrix& contact_voltages) const {
  return impl_->solve_currents(contact_voltages, diag());
}

}  // namespace subspar
