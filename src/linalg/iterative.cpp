#include "linalg/iterative.hpp"

#include <cmath>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/matrix.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace subspar {
namespace {

// Solve the small symmetric k x k system T Y = S of the block recurrences:
// Cholesky on the SPD fast path, spectral pseudo-inverse when the block has
// gone (near-)rank-deficient — e.g. a column converged, making its search
// direction numerically dependent on the others.
Matrix solve_block_gram(const Matrix& t, const Matrix& s) {
  Matrix tsym = t;
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      tsym(i, j) = tsym(j, i) = 0.5 * (t(i, j) + t(j, i));
  try {
    return Cholesky(tsym).solve(s);
  } catch (const std::invalid_argument&) {
    const EigSym eig = eig_sym(tsym);
    double lmax = 0.0;
    for (std::size_t i = 0; i < eig.values.size(); ++i)
      lmax = std::max(lmax, std::abs(eig.values[i]));
    const double cut = lmax * 1e-13;
    Matrix vts = matmul_tn(eig.vectors, s);
    for (std::size_t i = 0; i < vts.rows(); ++i) {
      const double lam = eig.values[i];
      const double inv = std::abs(lam) > cut ? 1.0 / lam : 0.0;
      for (std::size_t j = 0; j < vts.cols(); ++j) vts(i, j) *= inv;
    }
    return matmul(eig.vectors, vts);
  }
}

}  // namespace

Vector Preconditioner::apply(const Vector& r) const {
  Matrix rm(r.size(), 1);
  rm.set_col(0, r);
  return apply_many(rm).col(0);
}

Vector pcg(const LinearOp& a, const Vector& b, const IterOptions& opt, IterStats* stats,
           const LinearOp& precond) {
  const std::size_t n = b.size();
  Vector x(n);
  Vector r = b;  // x0 = 0
  const double bnorm = norm2(b);
  IterStats local;
  if (bnorm == 0.0) {
    local.converged = true;
    if (stats) *stats = local;
    return x;
  }
  Vector z = precond ? precond(r) : r;
  Vector p = z;
  double rz = dot(r, z);
  for (std::size_t it = 0; it < opt.max_iterations; ++it) {
    const Vector ap = a(p);
    const double pap = dot(p, ap);
    // A non-positive or NaN curvature means the operator (or the
    // preconditioner) is not SPD, or an apply returned garbage: return
    // unconverged and let the caller escalate.
    if (!(pap > 0.0)) break;
    const double alpha = rz / pap;
    x.axpy(alpha, p);
    r.axpy(-alpha, ap);
    local.iterations = it + 1;
    const double rnorm = norm2(r);
    if (rnorm <= opt.rel_tol * bnorm) {
      local.converged = true;
      local.relative_residual = rnorm / bnorm;
      if (stats) *stats = local;
      return x;
    }
    z = precond ? precond(r) : r;
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  local.relative_residual = norm2(r) / bnorm;
  if (stats) *stats = local;
  return x;
}

namespace {

// Per-column sums of squares in one row-order pass. Each column still
// accumulates in ascending row order, so the sums are bitwise those of a
// column-by-column loop.
void col_sq_norms(const Matrix& m, std::vector<double>& s) {
  s.assign(m.cols(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_ptr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) s[j] += row[j] * row[j];
  }
}

// Selects the `keep` columns of a matrix (column compaction after
// deflating converged block-CG columns).
Matrix select_cols(const Matrix& m, const std::vector<std::size_t>& keep) {
  Matrix out(m.rows(), keep.size());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* src = m.row_ptr(i);
    double* dst = out.row_ptr(i);
    for (std::size_t j = 0; j < keep.size(); ++j) dst[j] = src[keep[j]];
  }
  return out;
}

}  // namespace

Matrix pcg_block(const LinearOpMany& a, const Matrix& b, const IterOptions& opt,
                 BlockIterStats* stats, const Preconditioner* precond) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  // Allocated only when some column leaves the block early (a zero column
  // or a deflated one); otherwise the live block xa is the answer.
  Matrix x;
  const auto ensure_x = [&] {
    if (x.rows() == 0) x = Matrix(n, k);
  };
  BlockIterStats local;

  // Zero columns solve to zero; drop them so the Gram systems stay SPD.
  std::vector<double> bnorm_all;
  col_sq_norms(b, bnorm_all);
  std::vector<std::size_t> active;  // original column index of each live slot
  for (std::size_t j = 0; j < k; ++j) {
    bnorm_all[j] = std::sqrt(bnorm_all[j]);
    if (bnorm_all[j] > 0.0) active.push_back(j);
  }
  if (active.empty()) {
    local.converged = true;
    if (stats) *stats = local;
    return Matrix(n, k);
  }
  std::vector<double> bnorm(active.size());
  Matrix r(n, active.size());
  for (std::size_t j = 0; j < active.size(); ++j) {
    bnorm[j] = bnorm_all[active[j]];
    for (std::size_t i = 0; i < n; ++i) r(i, j) = b(i, active[j]);
  }

  Matrix xa(n, active.size());
  // p starts as the preconditioned residual z, and s = z' r is the live x
  // live Gram of the recurrence.
  Matrix p = precond ? precond->apply_many(r) : r;
  Matrix s = matmul_tn(p, r);
  std::vector<double> rs;  // per-column residual sums of squares
  for (std::size_t it = 0; it < opt.max_iterations; ++it) {
    // Cooperative cancellation/deadline checkpoint: a long solve on a large
    // grid spends essentially all its time in this loop, so per-iteration
    // granularity is what bounds a cancelled job's latency.
    cancellation_point("pcg_block");
    {
      // q = A p is dead once r is updated: free it before the
      // preconditioner apply below allocates z.
      const Matrix q = a(p);
      const Matrix alpha = solve_block_gram(matmul_tn(p, q), s);
      matmul_add(xa, p, alpha, 1.0);
      matmul_add(r, q, alpha, -1.0);
    }
    local.iterations = it + 1;

    // Per-column residuals; deflate converged columns out of the block so
    // the Gram systems stay well-conditioned for the stragglers.
    const std::size_t ka = active.size();
    std::vector<std::size_t> keep, done;
    double worst = 0.0;
    bool finite = true;
    col_sq_norms(r, rs);
    for (std::size_t j = 0; j < ka; ++j) {
      const double rel = std::sqrt(rs[j]) / bnorm[j];
      finite = finite && std::isfinite(rel);
      if (rel <= opt.rel_tol) {
        done.push_back(j);
      } else {
        keep.push_back(j);
        worst = std::max(worst, rel);
      }
    }
    local.max_relative_residual = worst;
    if (keep.empty()) {
      local.converged = true;
      break;
    }
    // A non-finite residual (a corrupted operator apply) spreads through the
    // block Gram solves to every column and no later iteration removes it:
    // return the block unconverged instead of iterating to the limit.
    if (!finite) break;
    const bool deflated = keep.size() < ka;
    if (deflated) {
      // Converged columns leave the block: their iterates are final.
      ensure_x();
      for (const std::size_t j : done)
        for (std::size_t i = 0; i < n; ++i) x(i, active[j]) = xa(i, j);
      std::vector<std::size_t> next_active(keep.size());
      std::vector<double> next_bnorm(keep.size());
      for (std::size_t j = 0; j < keep.size(); ++j) {
        next_active[j] = active[keep[j]];
        next_bnorm[j] = bnorm[keep[j]];
      }
      active = std::move(next_active);
      bnorm = std::move(next_bnorm);
      xa = select_cols(xa, keep);
      r = select_cols(r, keep);
      // p is not compacted: the recurrence restarts below with p = z.
    }

    Matrix z = precond ? precond->apply_many(r) : r;
    Matrix s_next = matmul_tn(z, r);
    if (!deflated) {
      // p = z + p beta, accumulated into z so no third block is allocated.
      // Deflation instead leaves p = z: fresh directions for the surviving
      // columns (their cross terms with the deflated ones are gone); CG
      // re-accelerates from there.
      matmul_add(z, p, solve_block_gram(s, s_next), 1.0);
    }
    p = std::move(z);
    s = std::move(s_next);
  }

  if (stats) *stats = local;
  if (x.rows() == 0 && active.size() == k) return xa;  // no column left early
  ensure_x();
  for (std::size_t j = 0; j < active.size(); ++j)
    for (std::size_t i = 0; i < n; ++i) x(i, active[j]) = xa(i, j);
  return x;
}

Vector gmres(const LinearOp& a, const Vector& b, std::size_t restart, const IterOptions& opt,
             IterStats* stats) {
  SUBSPAR_REQUIRE(restart >= 1);
  const std::size_t n = b.size();
  Vector x(n);
  const double bnorm = norm2(b);
  IterStats local;
  if (bnorm == 0.0) {
    local.converged = true;
    if (stats) *stats = local;
    return x;
  }
  std::size_t total_iters = 0;
  while (total_iters < opt.max_iterations) {
    Vector r = b - a(x);
    double beta = norm2(r);
    if (beta <= opt.rel_tol * bnorm) {
      local.converged = true;
      break;
    }
    const std::size_t m = restart;
    std::vector<Vector> v;
    v.reserve(m + 1);
    v.push_back((1.0 / beta) * r);
    Matrix h(m + 1, m);                 // Hessenberg
    std::vector<double> cs(m), sn(m);   // Givens rotations
    Vector g(m + 1);
    g[0] = beta;
    std::size_t k = 0;
    for (; k < m && total_iters < opt.max_iterations; ++k, ++total_iters) {
      Vector w = a(v[k]);
      // Modified Gram-Schmidt.
      for (std::size_t i = 0; i <= k; ++i) {
        h(i, k) = dot(w, v[i]);
        w.axpy(-h(i, k), v[i]);
      }
      h(k + 1, k) = norm2(w);
      if (h(k + 1, k) > 0.0) v.push_back((1.0 / h(k + 1, k)) * w);
      // Apply accumulated rotations, then generate a new one.
      for (std::size_t i = 0; i < k; ++i) {
        const double t = cs[i] * h(i, k) + sn[i] * h(i + 1, k);
        h(i + 1, k) = -sn[i] * h(i, k) + cs[i] * h(i + 1, k);
        h(i, k) = t;
      }
      const double denom = std::hypot(h(k, k), h(k + 1, k));
      cs[k] = denom == 0.0 ? 1.0 : h(k, k) / denom;
      sn[k] = denom == 0.0 ? 0.0 : h(k + 1, k) / denom;
      h(k, k) = denom;
      h(k + 1, k) = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      if (std::abs(g[k + 1]) <= opt.rel_tol * bnorm) {
        ++k;
        break;
      }
      if (h(k, k) == 0.0) break;  // breakdown: x is already exact in span
    }
    // Solve the small triangular system and update x.
    Vector y(k);
    for (std::size_t ii = k; ii-- > 0;) {
      double s = g[ii];
      for (std::size_t j = ii + 1; j < k; ++j) s -= h(ii, j) * y[j];
      y[ii] = h(ii, ii) == 0.0 ? 0.0 : s / h(ii, ii);
    }
    for (std::size_t i = 0; i < k; ++i) x.axpy(y[i], v[i]);
    if (k < m) {  // converged (or breakdown) inside the cycle
      const Vector rr = b - a(x);
      local.relative_residual = norm2(rr) / bnorm;
      local.converged = local.relative_residual <= opt.rel_tol * 10.0;
      break;
    }
  }
  local.iterations = total_iters;
  if (local.relative_residual == 0.0) {
    const Vector rr = b - a(x);
    local.relative_residual = norm2(rr) / bnorm;
    local.converged = local.relative_residual <= opt.rel_tol * 10.0;
  }
  if (stats) *stats = local;
  return x;
}

}  // namespace subspar
