#include "substrate/eigen_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/robust.hpp"
#include "substrate/solve_chunks.hpp"
#include "transform/dct.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {
namespace {
constexpr double kPi = 3.14159265358979323846;

/// Size gate for the dense direct-solve fallback: materializing and
/// factoring the restricted panel operator is O(p^2) memory / O(p^3) work.
constexpr std::size_t kMaxDirectDim = 4096;

// Panel-averaging factor for mode m over M panels:
// mean over a panel of cos(m pi x / a) relative to its center value.
double sinc_factor(std::size_t m, std::size_t panels) {
  if (m == 0) return 1.0;
  const double u = kPi * static_cast<double>(m) / (2.0 * static_cast<double>(panels));
  return std::sin(u) / u;
}

// Per-thread operator buffers, reused across calls like the GEMM packing
// buffers: fresh grid-sized ones would be page-faulted in on every call, and
// the faults serialize the pool's threads.
struct OperatorWorkspace {
  Matrix sub, half, modes, back, out;
};

OperatorWorkspace& operator_workspace() {
  thread_local OperatorWorkspace ws;
  return ws;
}

// Zero `m` at the given shape, reallocating only when the shape changes.
void zero_fit(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() != rows || m.cols() != cols) {
    m = Matrix(rows, cols);
  } else {
    std::fill_n(m.row_ptr(0), rows * cols, 0.0);
  }
}

}  // namespace

double kernel_block_entry(const Vector& kernel, std::size_t mx, std::size_t ny,
                          std::size_t cx, std::size_t cy, long dx, long dy) {
  SUBSPAR_REQUIRE(kernel.size() == mx * ny);
  const long kx = std::clamp(static_cast<long>(cx) + dx, 0L, static_cast<long>(mx) - 1);
  const long ky = std::clamp(static_cast<long>(cy) + dy, 0L, static_cast<long>(ny) - 1);
  return kernel[static_cast<std::size_t>(kx) + mx * static_cast<std::size_t>(ky)];
}

struct SurfaceSolver::Impl {
  Layout layout;
  SubstrateStack stack;
  SurfaceSolverOptions options;

  // Grid storage is x + mx * y: a grid is an ny x mx row-major matrix whose
  // modes are Cy G Cx', laid out [ky][kx].
  Matrix cx, cy;                          // orthonormal DCT-II matrices
  Matrix cx_r, cy_r;                      // their columns at the contact columns Rx / rows Ry
  std::vector<double> lambda;             // scaled eigenvalue per mode, [ky][kx]
  std::vector<std::size_t> slot;          // each contact panel's index in the |Ry| x |Rx| sub-grid
  std::vector<std::size_t> contact_begin; // offsets into `slot`, size n+1
  std::vector<Cholesky> block_factors;    // per-contact preconditioner blocks
  mutable LazyFactor<Cholesky> direct_factor;  // dense fallback factor
  mutable IterationTally tally;

  Impl(const Layout& l, const SubstrateStack& s, SurfaceSolverOptions o)
      : layout(l), stack(s), options(o) {}

  std::size_t grid_size() const { return layout.panels_x() * layout.panels_y(); }

  // The one operator path, on the sub-grid of grid rows Ry and columns Rx
  // with cyr = Cy[:, Ry] and cxr = Cx[:, Rx]:
  //   ws.out = cyr' (Lambda o (cyr ws.sub cxr')) cxr.
  // The caller fills ws.sub (|Ry| x |Rx|). With the full Cy and Cx this is
  // the whole-grid operator. One column is one task: its GEMMs are too
  // small to pay for the pool, and their shapes depend only on the layout,
  // so a column's bits do not depend on the batch width or the pool size.
  void apply_sub(const Matrix& cyr, const Matrix& cxr, OperatorWorkspace& ws) const {
    const ParallelInlineScope inline_scope;
    const std::size_t ny = cyr.rows(), mx = cxr.rows();
    zero_fit(ws.half, ny, cxr.cols());
    matmul_add(ws.half, cyr, ws.sub);
    zero_fit(ws.modes, ny, mx);
    matmul_nt_add(ws.modes, ws.half, cxr);
    double* u = ws.modes.row_ptr(0);
    for (std::size_t i = 0; i < ny * mx; ++i) u[i] *= lambda[i];
    zero_fit(ws.back, cyr.cols(), mx);
    matmul_tn_add(ws.back, cyr, ws.modes);
    zero_fit(ws.out, cyr.cols(), cxr.cols());
    matmul_add(ws.out, ws.back, cxr);
  }

  // Full-grid apply (the block-Jacobi kernel, apply_panel_operator): rare,
  // so its buffers are its own and the per-thread ones keep the restricted
  // shapes.
  Vector apply_grid(const Vector& q) const {
    OperatorWorkspace ws;
    ws.sub = Matrix(cy.rows(), cx.rows());
    std::copy(q.begin(), q.end(), ws.sub.row_ptr(0));
    apply_sub(cy, cx, ws);
    Vector v(q.size());
    std::copy_n(ws.out.row_ptr(0), v.size(), v.data());
    return v;
  }

  // The restricted operator A_cc on all columns: each column scattered into
  // the contact sub-grid and gathered back, one util/parallel task per
  // column.
  Matrix apply_restricted_many(const Matrix& x) const {
    const std::size_t p = slot.size(), k = x.cols();
    Matrix y(p, k);
    parallel_for(k, [&](std::size_t j) {
      OperatorWorkspace& ws = operator_workspace();
      zero_fit(ws.sub, cy_r.cols(), cx_r.cols());
      double* sub = ws.sub.row_ptr(0);
      for (std::size_t idx = 0; idx < p; ++idx) sub[slot[idx]] = x(idx, j);
      apply_sub(cy_r, cx_r, ws);
      const double* out = ws.out.row_ptr(0);
      for (std::size_t idx = 0; idx < p; ++idx) y(idx, j) = out[slot[idx]];
    });
    return y;
  }

  // Block-Jacobi preconditioner applied per column (threaded).
  Matrix precondition_many(const Matrix& r) const {
    const std::size_t k = r.cols();
    Matrix z(r.rows(), k);
    parallel_for(k, [&](std::size_t j) {
      for (std::size_t c = 0; c + 1 < contact_begin.size(); ++c) {
        const std::size_t b = contact_begin[c], e = contact_begin[c + 1];
        Vector rc(e - b);
        for (std::size_t idx = b; idx < e; ++idx) rc[idx - b] = r(idx, j);
        const Vector zc = block_factors[c].solve(rc);
        for (std::size_t idx = b; idx < e; ++idx) z(idx, j) = zc[idx - b];
      }
    });
    return z;
  }

  // Dense direct fallback for the robust chain: materializes the restricted
  // panel operator once (p batched applies through the clean operator, no
  // fault instrumentation) and Cholesky-factors it; the factor is reused by
  // every later fallback.
  Matrix direct_solve(const Matrix& b) const {
    return direct_factor
        .get([&] {
          const std::size_t p = slot.size();
          Matrix a_cc = apply_restricted_many(Matrix::identity(p));
          // The transform round trip is symmetric only to rounding;
          // Cholesky needs it exact.
          for (std::size_t i = 0; i < p; ++i)
            for (std::size_t j = i + 1; j < p; ++j) {
              const double v = 0.5 * (a_cc(i, j) + a_cc(j, i));
              a_cc(i, j) = v;
              a_cc(j, i) = v;
            }
          return std::make_unique<Cholesky>(a_cc);
        })
        .solve(b);
  }

  // Shared solve core: contact-voltage columns -> contact-current columns,
  // one blocked PCG per chunk of <= kMaxSolveBlock columns, each run through
  // the robust fallback chain (restarts, then the dense direct solve).
  Matrix solve_block(const Matrix& contact_voltages, SolverDiagnostics& diag) const {
    const std::size_t n = layout.n_contacts();
    const std::size_t k = contact_voltages.cols();
    Matrix currents(n, k);
    const LinearOpMany op = [&](const Matrix& x) {
      Matrix y = apply_restricted_many(x);
      fault_corrupt(FaultSite::kSolverApply, y);
      return y;
    };
    const FunctionPreconditioner pre([&](const Matrix& r) { return precondition_many(r); });
    const DirectSolveFn direct =
        slot.size() <= kMaxDirectDim
            ? DirectSolveFn([&](const Matrix& bb) { return direct_solve(bb); })
            : DirectSolveFn();
    const auto chunk = [&](std::size_t j0, std::size_t kc, RobustSolveReport& report) {
      // Right-hand sides: each contact's panels sit at the contact voltage.
      Matrix v(slot.size(), kc);
      for (std::size_t j = 0; j < kc; ++j)
        for (std::size_t c = 0; c < n; ++c)
          for (std::size_t idx = contact_begin[c]; idx < contact_begin[c + 1]; ++idx)
            v(idx, j) = contact_voltages(c, j0 + j);
      const Matrix q = robust_pcg_block(
          op, v,
          {.iter = {.rel_tol = options.rel_tol, .max_iterations = options.max_iterations}},
          &report, options.contact_block_precond ? &pre : nullptr, /*tighter=*/nullptr, direct);
      for (std::size_t j = 0; j < kc; ++j) {
        for (std::size_t c = 0; c < n; ++c) {
          double s = 0.0;
          for (std::size_t idx = contact_begin[c]; idx < contact_begin[c + 1]; ++idx)
            s += q(idx, j);
          currents(c, j0 + j) = s;
        }
      }
    };
    run_solve_chunks(k, chunk, diag, tally);
    return currents;
  }
};

SurfaceSolver::SurfaceSolver(const Layout& layout, const SubstrateStack& stack,
                             SurfaceSolverOptions options)
    : impl_(std::make_unique<Impl>(layout, stack, options)) {
  SUBSPAR_REQUIRE(layout.n_contacts() > 0);
  // Like QuickSub, the eigendecomposition path needs a finite DC eigenvalue:
  // floating substrates are handled by the resistive-layer emulation.
  SUBSPAR_REQUIRE(stack.backplane() == Backplane::kGrounded);
  SUBSPAR_REQUIRE(is_power_of_two(layout.panels_x()) && is_power_of_two(layout.panels_y()));

  const std::size_t mx = layout.panels_x(), ny = layout.panels_y();
  const double a = layout.width(), b = layout.height();
  const double h2 = layout.panel_size() * layout.panel_size();
  auto& lam_modes = impl_->lambda;
  lam_modes.resize(mx * ny);
  for (std::size_t m = 0; m < mx; ++m) {
    for (std::size_t n = 0; n < ny; ++n) {
      double lam;
      if (m == 0 && n == 0) {
        lam = stack.lambda_dc();
      } else {
        const double gamma = kPi * std::sqrt((static_cast<double>(m) / a) * (static_cast<double>(m) / a) +
                                             (static_cast<double>(n) / b) * (static_cast<double>(n) / b));
        lam = stack.lambda(gamma);
      }
      const double sm = sinc_factor(m, mx);
      const double sn = sinc_factor(n, ny);
      double& l = lam_modes[n * mx + m];
      l = lam * sm * sm * sn * sn / h2;
      SUBSPAR_ENSURE(l > 0.0 && std::isfinite(l));
    }
  }
  impl_->cx = dct2_matrix(mx);
  impl_->cy = dct2_matrix(ny);

  // The contact sub-grid: grid rows Ry and columns Rx holding any contact
  // panel, in ascending order, and each panel's slot in it.
  std::vector<std::size_t> pos_x(mx, 0), pos_y(ny, 0);
  for (std::size_t c = 0; c < layout.n_contacts(); ++c)
    for (const std::size_t p : layout.contact_panels(c)) pos_x[p % mx] = pos_y[p / mx] = 1;
  // Keeps the DCT-II columns of the used rows (or columns) of `full`,
  // turning `pos` from a used flag into each used index's position.
  const auto restrict_columns = [](const Matrix& full, std::vector<std::size_t>& pos) {
    std::vector<std::size_t> used;
    for (std::size_t i = 0; i < pos.size(); ++i)
      if (pos[i] != 0) {
        pos[i] = used.size();
        used.push_back(i);
      }
    Matrix r(full.rows(), used.size());
    for (std::size_t k = 0; k < full.rows(); ++k)
      for (std::size_t c = 0; c < used.size(); ++c) r(k, c) = full(k, used[c]);
    return r;
  };
  impl_->cx_r = restrict_columns(impl_->cx, pos_x);
  impl_->cy_r = restrict_columns(impl_->cy, pos_y);
  const std::size_t rx = impl_->cx_r.cols();
  impl_->contact_begin.push_back(0);
  for (std::size_t c = 0; c < layout.n_contacts(); ++c) {
    for (const std::size_t p : layout.contact_panels(c))
      impl_->slot.push_back(pos_y[p / mx] * rx + pos_x[p % mx]);
    impl_->contact_begin.push_back(impl_->slot.size());
  }

  if (options.contact_block_precond) {
    // Approximate per-contact diagonal blocks of A_cc assuming translation
    // invariance of the panel kernel: one operator apply at a central panel
    // gives the kernel column, from which each (small) block is assembled.
    Vector unit(impl_->grid_size());
    const std::size_t cx = mx / 2, cy = ny / 2;
    unit[cx + mx * cy] = 1.0;
    const Vector kernel = impl_->apply_grid(unit);
    for (std::size_t c = 0; c < layout.n_contacts(); ++c) {
      const auto cpanels = layout.contact_panels(c);
      const std::size_t np = cpanels.size();
      Matrix blockm(np, np);
      for (std::size_t i = 0; i < np; ++i) {
        const long xi = static_cast<long>(cpanels[i] % mx), yi = static_cast<long>(cpanels[i] / mx);
        for (std::size_t j = i; j < np; ++j) {
          const long xj = static_cast<long>(cpanels[j] % mx), yj = static_cast<long>(cpanels[j] / mx);
          // One kernel lookup per unordered panel pair, symmetrized by
          // construction (the kernel is even in the offset up to boundary
          // effects, which a preconditioner may ignore). Iterating j >= i
          // only also keeps the lookup of pair (i, j) from being silently
          // overwritten by the mirrored lookup of pair (j, i).
          const double val = kernel_block_entry(kernel, mx, ny, cx, cy, xj - xi, yj - yi);
          blockm(i, j) = val;
          blockm(j, i) = val;
        }
      }
      // Postcondition, not a tautology-by-intent: CG requires a symmetric
      // preconditioner, so any future change to the assembly above must
      // keep the block exactly symmetric or fail loudly here.
      for (std::size_t i = 0; i < np; ++i)
        for (std::size_t j = i + 1; j < np; ++j)
          SUBSPAR_ENSURE(blockm(i, j) == blockm(j, i));
      try {
        impl_->block_factors.emplace_back(blockm);
      } catch (const std::invalid_argument&) {
        // The translation-invariant approximation can go indefinite for
        // contacts large relative to the grid; fall back to the diagonal.
        Matrix diag(np, np);
        for (std::size_t i = 0; i < np; ++i) diag(i, i) = blockm(i, i);
        impl_->block_factors.emplace_back(diag);
      }
    }
  }
}

SurfaceSolver::~SurfaceSolver() = default;

std::size_t SurfaceSolver::n_contacts() const { return impl_->layout.n_contacts(); }

std::string SurfaceSolver::cache_tag() const {
  const SurfaceSolverOptions& o = impl_->options;
  char buf[96];
  // The SIMD backend is deliberately not digested (all backends agree to
  // solver tolerance).
  std::snprintf(buf, sizeof buf, "|%a|%zu|%d|", o.rel_tol, o.max_iterations,
                o.contact_block_precond ? 1 : 0);
  return name() + buf + substrate_fingerprint(impl_->layout, impl_->stack);
}

Vector SurfaceSolver::apply_panel_operator(const Vector& panel_currents) const {
  SUBSPAR_REQUIRE(panel_currents.size() == impl_->grid_size());
  return impl_->apply_grid(panel_currents);
}

double SurfaceSolver::avg_iterations() const { return impl_->tally.average(); }

void SurfaceSolver::reset_iteration_stats() const { impl_->tally = IterationTally{}; }

Vector SurfaceSolver::do_solve(const Vector& contact_voltages) const {
  Matrix v(contact_voltages.size(), 1);
  v.set_col(0, contact_voltages);
  return impl_->solve_block(v, diag()).col(0);
}

Matrix SurfaceSolver::do_solve_many(const Matrix& contact_voltages) const {
  return impl_->solve_block(contact_voltages, diag());
}

}  // namespace subspar
