// Tests for the runtime-dispatched kernel backend (linalg/backend.hpp):
// registry/override semantics, cross-backend numerical parity, the
// batched-vs-single bit-identity invariants every backend must preserve,
// and the golden quickstart pins re-run under every backend the host
// supports.
//
// Parity contract (backend.hpp): the scalar backend is the bit-exact
// reference; SIMD backends agree within a few ulp. The SpMM row kernels
// vectorize ACROSS outputs (right-hand-side columns), keep each output's
// accumulation order, and are bit-identical to scalar on x86 by the FMA
// contraction policy (src/CMakeLists.txt). The GEMM micro-kernel contracts
// on purpose and may differ in the last ulp of the accumulation. On a
// cancelling sum the ulp distance of the (tiny) result is the wrong
// yardstick for that, so the GEMM checks bound |ref - got| by 4 ulp of the
// accumulation magnitude max|A| * max|B| * k, falling back to plain
// elementwise ulp distance for well-conditioned entries.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/backend.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "subspar/subspar.hpp"
#include "transform/poisson.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

// Captured before main() so later set_backend calls cannot pollute it:
// this is the backend the SUBSPAR_BACKEND / CPUID resolution picked at
// process start (the CI backend matrix pins the env var and asserts on it).
const BackendKind kStartupBackend = active_backend();

// Restores the active backend on scope exit, so a failing parity test
// cannot leak a pinned backend into the remaining tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend()) {}
  ~BackendGuard() { set_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  BackendKind saved_;
};

// Lexicographically monotone integer image of a double (negative range
// mirrored), so ulp distance is plain integer subtraction.
std::int64_t monotone_bits(double x) {
  std::int64_t i;
  std::memcpy(&i, &x, sizeof i);
  return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
}

std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;  // also covers +0 vs -0
  if (!std::isfinite(a) || !std::isfinite(b))
    return std::numeric_limits<std::uint64_t>::max();
  const std::int64_t ka = monotone_bits(a), kb = monotone_bits(b);
  return ka > kb ? static_cast<std::uint64_t>(ka) - static_cast<std::uint64_t>(kb)
                 : static_cast<std::uint64_t>(kb) - static_cast<std::uint64_t>(ka);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

// 4-ulp agreement against the accumulation magnitude (see file comment).
void expect_close(const Matrix& ref, const Matrix& got, double scale, const std::string& what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  const double tol = 4.0 * std::ldexp(scale, -52);
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      const double r = ref(i, j), g = got(i, j);
      if (ulp_distance(r, g) <= 4) continue;
      ASSERT_LE(std::abs(r - g), tol) << what << " at (" << i << ", " << j << "): ref=" << r
                                      << " got=" << g << " ulp=" << ulp_distance(r, g);
    }
}

void expect_bitwise(const Matrix& ref, const Matrix& got, const std::string& what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_EQ(ref(i, j), got(i, j)) << what << " at (" << i << ", " << j << ")";
}

// Random symmetric diagonally-dominant sparse matrix (SPD), mixed-sign
// off-diagonals so accumulation-order effects would show.
SparseMatrix random_spd(std::size_t n, std::size_t extra_per_row, Rng& rng) {
  SparseBuilder b(n, n);
  std::vector<double> diag(n, 1.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add(i, i + 1, -1.0);
    b.add(i + 1, i, -1.0);
    diag[i] += 1.0;
    diag[i + 1] += 1.0;
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t e = 0; e < extra_per_row; ++e) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n)));
      if (j == i || j >= n) continue;
      const double v = rng.uniform(-0.5, 0.5);
      b.add(i, j, v);
      b.add(j, i, v);
      diag[i] += std::abs(v);
      diag[j] += std::abs(v);
    }
  for (std::size_t i = 0; i < n; ++i) b.add(i, i, diag[i]);
  return SparseMatrix(b);
}

// ---------------------------------------------------------------------------
// Registry and override semantics
// ---------------------------------------------------------------------------

TEST(BackendRegistry, SupportedContainsScalarAndNamesRoundTrip) {
  const std::vector<BackendKind> supported = supported_backends();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), BackendKind::kScalar);
  for (BackendKind kind : supported) {
    EXPECT_EQ(parse_backend(backend_name(kind)), kind) << backend_name(kind);
  }
  // Everything supported is also compiled in.
  const std::vector<BackendKind> compiled = compiled_backends();
  for (BackendKind kind : supported)
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), kind), compiled.end());
}

TEST(BackendRegistry, BogusNameRejectedListingUsableBackends) {
  try {
    parse_backend("sse9");
    FAIL() << "parse_backend accepted a bogus name";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sse9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scalar"), std::string::npos)
        << "message should list the usable backends: " << msg;
  }
  EXPECT_THROW(parse_backend(""), std::invalid_argument);
}

TEST(BackendRegistry, CompiledButUnsupportedKindsAreRejected) {
  // Kinds the binary carries but this CPU cannot run (e.g. avx512 TUs on
  // an avx2-only host) must be refused by name and by set_backend alike.
  const std::vector<BackendKind> supported = supported_backends();
  for (BackendKind kind : compiled_backends()) {
    if (std::find(supported.begin(), supported.end(), kind) != supported.end()) continue;
    EXPECT_THROW(parse_backend(backend_name(kind)), std::invalid_argument)
        << backend_name(kind);
    EXPECT_THROW(set_backend(kind), std::invalid_argument) << backend_name(kind);
  }
}

TEST(BackendRegistry, EnvOverrideHonoredAtStartup) {
  // kStartupBackend was resolved before main(): if SUBSPAR_BACKEND was set
  // (the CI backend matrix exports it), startup must have honored it;
  // otherwise it must be the best supported kind in preference order.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test startup
  const char* env = std::getenv("SUBSPAR_BACKEND");
  if (env != nullptr && *env != '\0') {
    EXPECT_EQ(kStartupBackend, parse_backend(env));
    return;
  }
  const std::vector<BackendKind> supported = supported_backends();
  constexpr BackendKind kPreference[] = {BackendKind::kAvx512, BackendKind::kAvx2,
                                         BackendKind::kNeon, BackendKind::kScalar};
  for (BackendKind kind : kPreference) {
    if (std::find(supported.begin(), supported.end(), kind) == supported.end()) continue;
    EXPECT_EQ(kStartupBackend, kind) << "expected best supported " << backend_name(kind);
    return;
  }
  FAIL() << "supported_backends() missing scalar";
}

TEST(BackendRegistry, SetBackendSwitchesDispatch) {
  BackendGuard guard;
  for (BackendKind kind : supported_backends()) {
    set_backend(kind);
    EXPECT_EQ(active_backend(), kind) << backend_name(kind);
    EXPECT_EQ(kernel_ops().kind, kind) << backend_name(kind);
  }
}

// Every backend implements the same operator to solver tolerance, so the
// backend must never split cache keys: a solver built under any backend
// reports the same cache_tag() and hence the same ModelCache key.
TEST(BackendRegistry, CacheKeysDoNotDependOnTheBackend) {
  BackendGuard guard;
  const SubstrateStack stack = paper_stack(40.0);
  const Layout layout = regular_grid_layout(8);
  const ExtractionRequest request{.method = SparsifyMethod::kLowRank};
  for (const SolverKind kind : {SolverKind::kSurface, SolverKind::kFd}) {
    set_backend(BackendKind::kScalar);
    const std::string tag = make_solver(kind, layout, stack)->cache_tag();
    const std::string key = model_cache_key(layout, stack, request, tag);
    for (BackendKind backend : supported_backends()) {
      set_backend(backend);
      const std::string what =
          std::string(solver_kind_name(kind)) + " under " + backend_name(backend);
      const std::string tag_here = make_solver(kind, layout, stack)->cache_tag();
      EXPECT_EQ(tag_here, tag) << what;
      EXPECT_EQ(model_cache_key(layout, stack, request, tag_here), key) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-backend parity on fuzzed shapes
// ---------------------------------------------------------------------------

TEST(BackendParity, GemmFamilyWithin4UlpOfScalarOnFuzzedShapes) {
  BackendGuard guard;
  Rng rng(7741);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(0.0, 48.0));
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform(0.0, 48.0));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 48.0));
    const Matrix a = random_matrix(m, k, rng);        // for matmul / nt
    const Matrix b = random_matrix(k, n, rng);        // for matmul / tn
    const Matrix at = random_matrix(k, m, rng);       // for matmul_tn
    const Matrix bt = random_matrix(n, k, rng);       // for matmul_nt
    const Matrix c0 = random_matrix(m, n, rng);       // accumulate target
    const double scale = static_cast<double>(k);      // entries are in [-1, 1]

    set_backend(BackendKind::kScalar);
    const Matrix r_nn = matmul(a, b);
    const Matrix r_tn = matmul_tn(at, b);
    const Matrix r_nt = matmul_nt(a, bt);
    const Matrix r_gram = gram_tn(b);
    Matrix r_add = c0;
    matmul_add(r_add, a, b, 0.75);
    const Vector x = random_matrix(k, 1, rng).col(0);
    const Vector r_mv = matvec(a, x);

    for (BackendKind kind : supported_backends()) {
      set_backend(kind);
      const std::string tag =
          std::string(backend_name(kind)) + " trial " + std::to_string(trial);
      expect_close(r_nn, matmul(a, b), scale, "matmul " + tag);
      expect_close(r_tn, matmul_tn(at, b), scale, "matmul_tn " + tag);
      expect_close(r_nt, matmul_nt(a, bt), scale, "matmul_nt " + tag);
      expect_close(r_gram, gram_tn(b), scale, "gram_tn " + tag);
      Matrix got_add = c0;
      matmul_add(got_add, a, b, 0.75);
      expect_close(r_add, got_add, scale + 1.0, "matmul_add " + tag);
      const Vector got_mv = matvec(a, x);
      ASSERT_EQ(got_mv.size(), r_mv.size());
      for (std::size_t i = 0; i < r_mv.size(); ++i)
        EXPECT_LE(ulp_distance(r_mv[i], got_mv[i]), 4u) << "matvec " << tag << " row " << i;
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)
TEST(BackendParity, ScalarGemmFamilyBitwiseEqualsAscendingKReference) {
  // The scalar backend is the bit-exact reference: every element of a
  // packed-path product is the ascending-k sum of separately rounded
  // products (x86's baseline ISA has no fused multiply-add). The shapes
  // leave ragged MR-row and NR-column tails and span several output tiles.
  BackendGuard guard;
  set_backend(BackendKind::kScalar);
  const auto reference = [](const Matrix& a, bool a_t, const Matrix& b, bool b_t) {
    const std::size_t m = a_t ? a.cols() : a.rows(), k = a_t ? a.rows() : a.cols();
    const std::size_t n = b_t ? b.rows() : b.cols();
    Matrix c(m, n);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t l = 0; l < k; ++l) {
          const double p = (a_t ? a(l, i) : a(i, l)) * (b_t ? b(j, l) : b(l, j));
          s += p;
        }
        c(i, j) = s;
      }
    return c;
  };
  Rng rng(4471);
  for (const auto& [m, k, n] : {std::array<std::size_t, 3>{67, 45, 35},
                                std::array<std::size_t, 3>{130, 33, 77},
                                std::array<std::size_t, 3>{5, 301, 29},
                                std::array<std::size_t, 3>{93, 70, 141}}) {
    const std::string tag =
        std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    const Matrix at = a.transposed();
    const Matrix bt = b.transposed();
    const Matrix ref = reference(a, false, b, false);
    expect_bitwise(ref, matmul(a, b), "matmul " + tag);
    expect_bitwise(ref, matmul_tn(at, b), "matmul_tn " + tag);
    expect_bitwise(ref, matmul_nt(a, bt), "matmul_nt " + tag);
    expect_bitwise(reference(b, true, b, false), gram_tn(b), "gram_tn " + tag);
  }
}
#endif

TEST(BackendParity, SpmmMatchesScalarOnFuzzedMatrices) {
  BackendGuard guard;
  Rng rng(993);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t n = 40 + 37 * static_cast<std::size_t>(trial);
    const SparseMatrix a = random_spd(n, 4, rng);
    const std::size_t kRhs = 1 + static_cast<std::size_t>(rng.uniform(0.0, 9.0));
    const Matrix x = random_matrix(n, kRhs, rng);

    set_backend(BackendKind::kScalar);
    const Matrix r_many = a.apply_many(x);
    const Matrix r_t_many = a.apply_t_many(x);

    for (BackendKind kind : supported_backends()) {
      set_backend(kind);
      const std::string tag =
          std::string(backend_name(kind)) + " trial " + std::to_string(trial);
      const double scale = 8.0;  // per-row accumulation: a handful of O(1) entries
      expect_close(r_many, a.apply_many(x), scale, "apply_many " + tag);
      expect_close(r_t_many, a.apply_t_many(x), scale, "apply_t_many " + tag);
#if defined(__x86_64__) || defined(__i386__)
      // On x86 the contraction policy makes the tailed kernels bit-exact
      // against scalar, not merely close (see src/CMakeLists.txt).
      expect_bitwise(r_many, a.apply_many(x), "apply_many bitwise " + tag);
      expect_bitwise(r_t_many, a.apply_t_many(x), "apply_t_many bitwise " + tag);
#endif
    }
  }
}

TEST(BackendParity, BatchedEqualsSingleBitwiseUnderEveryBackend) {
  // The invariant the FMA contraction policy exists to protect: batched
  // entry points are bit-identical to their one-at-a-time equivalents
  // under EVERY backend (not just scalar), because a backend may not round
  // a k=1 column differently from a k=8 block.
  BackendGuard guard;
  Rng rng(555);
  const SparseMatrix a = random_spd(120, 3, rng);
  const std::size_t kRhs = 6;
  const Matrix x = random_matrix(120, kRhs, rng);
  // Fast-Poisson grid large enough for its transforms to run on the packed
  // GEMM kernel of every backend.
  PoissonGrid pg;
  pg.nx = 32;
  pg.ny = 64;
  pg.nz = 3;
  pg.lateral_g = {2.0, 1.0, 1.0};
  pg.vertical_g = {1.5, 1.0};
  pg.top_g = 0.5;
  const FastPoisson3D fp(pg);
  const Matrix pb = random_matrix(pg.size(), 3, rng);

  for (BackendKind kind : supported_backends()) {
    set_backend(kind);
    const std::string tag = backend_name(kind);

    const Matrix many = a.apply_many(x);
    const Matrix t_many = a.apply_t_many(x);
    for (std::size_t j = 0; j < kRhs; ++j) {
      const Vector single = a.apply(x.col(j));
      const Vector t_single = a.apply_t(x.col(j));
      for (std::size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(many(i, j), single[i]) << "apply_many " << tag;
        ASSERT_EQ(t_many(i, j), t_single[i]) << "apply_t_many " << tag;
      }
    }

    const Matrix px = fp.solve_many(pb);
    for (std::size_t j = 0; j < pb.cols(); ++j) {
      const Vector single = fp.solve(pb.col(j));
      for (std::size_t i = 0; i < single.size(); ++i)
        ASSERT_EQ(px(i, j), single[i]) << "FastPoisson3D::solve_many " << tag;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden quickstart pins under every backend
// ---------------------------------------------------------------------------

TEST(GoldenBackend, QuickstartPinsUnchangedUnderEveryBackend) {
  // The test_golden.cpp constants, re-run once per supported backend: the
  // discrete outputs (solve counts, sparsity patterns) must not move when
  // the kernels change ISA — that is the portability contract that lets
  // one ModelCache serve every machine.
  BackendGuard guard;
  for (BackendKind kind : supported_backends()) {
    set_backend(kind);
    SCOPED_TRACE(backend_name(kind));

    const SubstrateStack stack = paper_stack(40.0);
    const Layout layout = regular_grid_layout(16);
    const auto solver = make_solver(SolverKind::kSurface, layout, stack);
    const ExtractionRequest request{.method = SparsifyMethod::kLowRank,
                                    .threshold_sparsity_multiple = 6.0};
    const ExtractionResult ex = Extractor(*solver, layout).extract(request);
    EXPECT_EQ(ex.report.solves, 357);
    EXPECT_EQ(ex.model.gw().nnz(), 6090u);
    EXPECT_EQ(ex.model.q().nnz(), 3184u);
    EXPECT_EQ(ex.report.backend, backend_name(kind));

    ExtractionRequest rbk = request;
    rbk.lowrank.basis = RowBasisScheme::kBlockKrylov;
    const ExtractionResult ex_rbk = Extractor(*solver, layout).extract(rbk);
    EXPECT_EQ(ex_rbk.report.solves, 279);
    EXPECT_EQ(ex_rbk.report.basis_scheme, "block-krylov");
  }
}

}  // namespace
}  // namespace subspar
