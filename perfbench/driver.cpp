// End-to-end benchmark driver: runs one workload in one process and prints
// one JSON line with what it measured (README.md describes the workloads and
// metrics; run.py builds this program and turns its output into the
// benchmark's result).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --mode timed|traced [--overhead 0|1] [--trace-out <file>]
//
// The library is driven through its public API only: make_solver,
// Extractor::extract with its progress callback, SubstrateSolver::solve_many,
// SparsifiedModel::apply_many and SparseMatrix::apply / apply_t.
//
// `timed` measures the end-to-end metrics with nothing traced. `traced`
// wraps the solver in a forwarding SubstrateSolver, records spans around the
// calls into each layer (workload > setup | extract > phase > solve batch;
// apply loop > apply batch) and reports each layer's time and counts. With
// `--overhead 1` it also runs one untraced extraction first, so the traced
// minus untraced extraction time is the cost of the tracing itself.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "subspar/subspar.hpp"

namespace {

using namespace subspar;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent deterministic streams derived from the workload seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ splitmix64(stream + 0x51ed270b2d8f0f9dULL));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// ---------------------------------------------------------------------------
// Minimal JSON output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_number(v[i]);
  return out + "]";
}

/// Ordered name -> JSON-value map written as one object.
class JsonObject {
 public:
  void num(const std::string& key, double v) { items_.emplace_back(key, json_number(v)); }
  void str(const std::string& key, const std::string& v) { items_.emplace_back(key, json_string(v)); }
  void raw(const std::string& key, std::string v) { items_.emplace_back(key, std::move(v)); }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i)
      out += (i ? ", " : "") + json_string(items_[i].first) + ": " + items_[i].second;
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  double t0 = 0.0;  ///< seconds since the tracer's epoch
  double t1 = 0.0;
  long work = 0;  ///< columns for a solve batch, vectors for an apply batch
};

/// In-memory span store. A span's parent is the span that caused it; its
/// self time is its duration minus the durations of its children (children
/// of one span never overlap: every span here is opened on the calling
/// thread of a sequential pipeline).
class Tracer {
 public:
  int open(std::string name, int parent) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), parent, now(), 0.0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, long work = 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = now();
    spans_[static_cast<std::size_t>(id)].work = work;
  }
  void rename(int id, std::string name) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }
  /// The span new solve batches attach to (the phase in progress).
  void set_current(int id) {
    const std::lock_guard<std::mutex> lock(mu_);
    current_ = id;
  }
  int current() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  double duration(int id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.t1 - s.t0;
  }
  double self(int id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const Span& s = spans_[static_cast<std::size_t>(id)];
    double children = 0.0;
    for (const Span& c : spans_)
      if (c.parent == id) children += c.t1 - c.t0;
    return (s.t1 - s.t0) - children;
  }

  /// Sum of durations / self times / work / count over the descendants of
  /// `root` named `name`.
  struct Totals {
    double seconds = 0.0;
    double self_seconds = 0.0;
    long work = 0;
    long count = 0;
  };
  Totals totals(const std::string& name, int root) const {
    Totals t;
    std::vector<std::size_t> ids;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name && descends(static_cast<int>(i), root)) ids.push_back(i);
    }
    for (const std::size_t i : ids) {
      const Span& s = spans_[i];
      t.seconds += s.t1 - s.t0;
      t.self_seconds += self(static_cast<int>(i));
      t.work += s.work;
      ++t.count;
    }
    return t;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject o;
      o.num("id", static_cast<double>(i));
      o.num("parent", s.parent);
      o.str("name", s.name);
      o.num("t0", s.t0);
      o.num("t1", s.t1);
      o.num("work", static_cast<double>(s.work));
      out << o.dump() << "\n";
    }
  }

 private:
  double now() const { return seconds_since(epoch_); }
  // Caller holds mu_.
  bool descends(int id, int root) const {
    for (int p = id; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent)
      if (p == root) return true;
    return false;
  }

  mutable std::mutex mu_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Forwarding black-box solver for the traced run: every solve batch goes to
/// the wrapped solver unchanged and is recorded as a span under the phase in
/// progress. Forwards the wrapped solver's cache_tag and keeps a copy of its
/// diagnostics, so the Extractor's per-phase report is unchanged too.
class TimedSolver final : public SubstrateSolver {
 public:
  TimedSolver(const SubstrateSolver& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {
    diag() = inner_.diagnostics();
  }

  std::size_t n_contacts() const override { return inner_.n_contacts(); }
  std::string name() const override { return inner_.name(); }
  std::string cache_tag() const override { return inner_.cache_tag(); }

 protected:
  Vector do_solve(const Vector& contact_voltages) const override {
    const int id = tracer_.open("substrate.solve_many", tracer_.current());
    Vector out = inner_.solve(contact_voltages);
    tracer_.close(id, 1);
    diag() = inner_.diagnostics();
    return out;
  }
  Matrix do_solve_many(const Matrix& contact_voltages) const override {
    const int id = tracer_.open("substrate.solve_many", tracer_.current());
    Matrix out = inner_.solve_many(contact_voltages);
    tracer_.close(id, static_cast<long>(contact_voltages.cols()));
    diag() = inner_.diagnostics();
    return out;
  }

 private:
  const SubstrateSolver& inner_;
  Tracer& tracer_;
};

/// Layer name of an Extractor pipeline phase.
std::string phase_layer(const std::string& phase) {
  static const std::map<std::string, std::string> names = {
      {"row-basis", "lowrank.row_basis"},         {"fine-to-coarse", "lowrank.fine_to_coarse"},
      {"gw-fill", "lowrank.gw_fill"},             {"threshold", "core.threshold"},
      {"wavelet-basis", "wavelet.basis"},         {"combine-extract", "wavelet.combine_extract"}};
  const auto it = names.find(phase);
  return it != names.end() ? it->second : "phase." + phase;
}

const std::vector<std::string>& phase_layers() {
  static const std::vector<std::string> layers = {
      "lowrank.row_basis", "lowrank.fine_to_coarse", "lowrank.gw_fill",
      "core.threshold",    "wavelet.basis",          "wavelet.combine_extract"};
  return layers;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  SolverKind kind;
  int contacts_per_side;
  double panel_size;
  bool fd_stack;
  SparsifyMethod method;
  RowBasisScheme basis;
  /// noise-sweep: the model is built in set-up and only applies are timed.
  bool model_in_setup;
  /// Correctness gate: largest accepted ||GV - QG_wQ'V||_F / ||GV||_F.
  double max_rel_error;
  /// Switching patterns per apply batch. 64 at n = 1024. At n = 256 a
  /// 64-pattern batch takes ~0.35 ms, so waking the second pool thread is a
  /// large and host-dependent share of it; 512 patterns keep the batch in
  /// the milliseconds, like the n = 1024 workloads.
  std::size_t apply_batch;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"surface-lr-1k", SolverKind::kSurface, 32, 1.0, false, SparsifyMethod::kLowRank,
       RowBasisScheme::kColumnSampling, false, 1e-2, 64},
      {"fd-rbk-256", SolverKind::kFd, 16, 2.0, true, SparsifyMethod::kLowRank,
       RowBasisScheme::kBlockKrylov, false, 1e-2, 512},
      {"noise-sweep-1k", SolverKind::kSurface, 32, 1.0, false, SparsifyMethod::kWavelet,
       RowBasisScheme::kColumnSampling, true, 5e-2, 64},
  };
  return all;
}

/// The §3.7 substrate of the paper's tables (bench/common.hpp bench_stack).
SubstrateStack surface_stack() { return paper_stack(40.0, 0.5, 1.0); }
/// Its finite-difference variant with layer boundaries on h = 2 grid-plane
/// gaps (bench/common.hpp bench_stack_fd).
SubstrateStack fd_stack() {
  return SubstrateStack({{2.0, 1.0}, {36.0, 100.0}, {2.0, 0.1}}, Backplane::kGrounded);
}

constexpr std::size_t kPatternPool = 8;  ///< distinct batches cycled by the apply loop
constexpr std::size_t kProbes = 32;      ///< probe vectors of the rel_error gate
constexpr std::size_t kMinApplyBatches = 1000;  ///< so p99 has >= 10 batches beyond it
constexpr std::size_t kTracedApplyBatches = 300;
constexpr double kWindowSeconds = 0.5;  ///< apply-loop window length (see ApplyStats)
constexpr std::size_t kMinSetups = 5;  ///< set-ups per timed run: at least this many,
constexpr std::size_t kMaxSetups = 200;  ///< and more (up to this) until 1 s has passed

/// A batch of digital switching patterns: the aggressor contacts switch to
/// +1 V or -1 V at random, every other contact is grounded.
Matrix switching_batch(std::size_t n, std::size_t width, const std::vector<std::size_t>& aggressors,
                       Rng& rng) {
  Matrix v(n, width);
  for (std::size_t j = 0; j < width; ++j)
    for (const std::size_t a : aggressors) v(a, j) = rng.uniform() < 0.5 ? -1.0 : 1.0;
  return v;
}

/// Seeded pool of switching batches over a seeded eighth of the contacts.
std::vector<Matrix> pattern_pool(std::size_t n, std::size_t width, std::uint64_t seed) {
  Rng rng(stream_seed(seed, 3));
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  const std::size_t n_aggressors = std::max<std::size_t>(1, n / 8);
  for (std::size_t i = 0; i < n_aggressors; ++i)
    std::swap(ids[i], ids[i + rng.below(n - i)]);
  ids.resize(n_aggressors);
  std::sort(ids.begin(), ids.end());
  std::vector<Matrix> pool;
  for (std::size_t b = 0; b < kPatternPool; ++b) pool.push_back(switching_batch(n, width, ids, rng));
  return pool;
}

/// Apply-loop metrics over its quietest windows. The loop is cut into
/// windows of consecutive batches lasting at least kWindowSeconds. On a
/// shared host, contention from other tenants comes and goes over seconds
/// and slows whole windows, in CPU time as much as in wall time. Contention
/// only ever adds time, so the metrics are taken over the quietest windows
/// (highest throughput first) that together hold at least kMinApplyBatches
/// batches: enough for p99 to have at least 10 batches beyond it.
struct ApplyStats {
  double vps = 0.0;  ///< vectors per second over the quiet windows
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t windows = 0;
  std::size_t quiet_batches = 0;
};

ApplyStats apply_stats(const std::vector<double>& batch_ms, std::size_t width) {
  struct Window {
    std::size_t begin, end;
    double ms;
  };
  std::vector<Window> windows;
  Window w{0, 0, 0.0};
  for (std::size_t b = 0; b < batch_ms.size(); ++b) {
    w.ms += batch_ms[b];
    w.end = b + 1;
    if (w.ms >= 1e3 * kWindowSeconds) {
      windows.push_back(w);
      w = {b + 1, b + 1, 0.0};
    }
  }
  if (w.end > w.begin) {  // a short tail joins the last window
    if (windows.empty()) windows.push_back(w);
    else {
      windows.back().end = w.end;
      windows.back().ms += w.ms;
    }
  }
  std::sort(windows.begin(), windows.end(), [](const Window& a, const Window& b) {
    return static_cast<double>(a.end - a.begin) / a.ms >
           static_cast<double>(b.end - b.begin) / b.ms;
  });
  std::vector<double> quiet;
  double quiet_ms = 0.0;
  for (const Window& q : windows) {
    if (quiet.size() >= kMinApplyBatches) break;
    quiet.insert(quiet.end(), batch_ms.begin() + static_cast<std::ptrdiff_t>(q.begin),
                 batch_ms.begin() + static_cast<std::ptrdiff_t>(q.end));
    quiet_ms += q.ms;
  }
  ApplyStats out;
  out.vps = 1e3 * static_cast<double>(quiet.size() * width) / quiet_ms;
  out.p50_ms = percentile(quiet, 50.0);
  out.p99_ms = percentile(quiet, 99.0);
  out.windows = windows.size();
  out.quiet_batches = quiet.size();
  return out;
}

/// FNV-1a over the CSR arrays and value bits of one sparse matrix.
void hash_sparse(const SparseMatrix& a, std::uint64_t& h) {
  const auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(a.rows());
  mix(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    mix(a.row_end(i));
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      mix(a.col_index(k));
      mix(bits_of(a.value(k)));
    }
  }
}

std::uint64_t model_checksum(const SparsifiedModel& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  hash_sparse(m.q(), h);
  hash_sparse(m.gw(), h);
  return h;
}

std::string hex64(std::uint64_t x) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// What one extraction produced, for the across-repetition identity check.
struct Outcome {
  double seconds = 0.0;
  long solves = 0;
  std::size_t nnz_q = 0;
  std::size_t nnz_gw = 0;
  std::uint64_t checksum = 0;
  double gw_sparsity = 0.0;
};

Outcome outcome_of(const ExtractionResult& r, double seconds) {
  return {seconds, r.report.solves, r.model.q().nnz(), r.model.gw().nnz(),
          model_checksum(r.model), r.report.gw_sparsity};
}

bool same_model(const Outcome& a, const Outcome& b) {
  return a.solves == b.solves && a.nnz_q == b.nnz_q && a.nnz_gw == b.nnz_gw &&
         a.checksum == b.checksum;
}

/// Solver plus Extractor (the quadtree build) over one layout: the set-up.
/// The extractor is declared last so it is destroyed before the solver.
struct Setup {
  std::unique_ptr<SubstrateSolver> solver;
  std::unique_ptr<Extractor> extractor;
};

/// Operations attempted and failed, with the reason of every failure.
struct Ledger {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  void fail(long ops, const std::string& why) {
    failed += ops;
    errors.push_back(why);
  }
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, double seconds)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        layout_(regular_grid_layout(w.contacts_per_side, w.panel_size)),
        stack_(w.fd_stack ? fd_stack() : surface_stack()) {
    request_.method = w.method;
    request_.lowrank.basis = w.basis;
    request_.lowrank.seed = stream_seed(seed, 1);
    request_.threshold_sparsity_multiple = 6.0;
    // Reference products G V for the rel_error gate, from a solver instance
    // of their own so these solves stay out of the extraction's count.
    // Computing them first also finishes the process's lazy set-up (thread
    // pool, transform plans) before anything is timed.
    Rng rng(stream_seed(seed, 2));
    probes_ = Matrix(n(), kProbes);
    for (std::size_t i = 0; i < n(); ++i)
      for (std::size_t j = 0; j < kProbes; ++j) probes_(i, j) = rng.normal();
    exact_ = make_solver(w.kind, layout_, stack_)->solve_many(probes_);
  }

  std::size_t n() const { return layout_.n_contacts(); }

  Setup make_setup(Tracer* tracer, int parent) const {
    Setup s;
    const int c = tracer ? tracer->open("substrate.construct", parent) : -1;
    s.solver = make_solver(w_.kind, layout_, stack_);
    if (tracer) tracer->close(c);
    const int q = tracer ? tracer->open("geometry.quadtree", parent) : -1;
    s.extractor = std::make_unique<Extractor>(*s.solver, layout_);
    if (tracer) tracer->close(q);
    return s;
  }

  /// One extraction, timed from outside; counted in the ledger.
  std::optional<ExtractionResult> extract(const Extractor& ex, const ExtractionRequest& req,
                                          Ledger& ledger, double* seconds) const {
    ++ledger.attempted;
    const auto t0 = Clock::now();
    try {
      ExtractionResult r = ex.extract(req);
      *seconds = seconds_since(t0);
      return r;
    } catch (const std::exception& e) {
      ledger.fail(1, std::string("extract threw: ") + e.what());
      return std::nullopt;
    }
  }

  /// ||GV - QG_wQ'V||_F / ||GV||_F over the seeded probe vectors V.
  double rel_error(const SparsifiedModel& model) const {
    return (exact_ - model.apply_many(probes_)).frobenius_norm() / exact_.frobenius_norm();
  }

  /// Correctness gate, run outside every timed region. Returns rel_error.
  double gate(const SparsifiedModel& model, const std::vector<Outcome>& outcomes,
              const std::vector<Matrix>& pool, Ledger& ledger) const {
    for (std::size_t i = 1; i < outcomes.size(); ++i)
      if (!same_model(outcomes[i], outcomes[0]))
        ledger.fail(1, "extraction " + std::to_string(i) +
                           " differs from the first (solves/nnz/checksum)");
    const double rel = rel_error(model);
    if (!(rel <= w_.max_rel_error))
      ledger.fail(static_cast<long>(outcomes.size()),
                  "rel_error " + json_number(rel) + " above " + json_number(w_.max_rel_error));
    ++ledger.attempted;  // the check batch
    const Matrix& batch = pool.front();
    const Matrix many = model.apply_many(batch);
    bool equal = true;
    for (std::size_t j = 0; j < batch.cols() && equal; ++j) {
      const Vector one = model.apply(batch.col(j));
      for (std::size_t i = 0; i < one.size(); ++i)
        if (bits_of(one[i]) != bits_of(many(i, j))) equal = false;
    }
    if (!equal) ledger.fail(1, "apply_many differs bitwise from per-column apply");
    return rel;
  }

  // -------------------------------------------------------------------------
  // timed: the end-to-end metrics
  // -------------------------------------------------------------------------
  JsonObject run_timed(Ledger& ledger) {
    std::vector<double> setup_s, extract_s;
    std::vector<Outcome> outcomes;
    std::optional<ExtractionResult> result;
    Setup setup;
    const auto setup_loop = Clock::now();
    while (setup_s.size() < kMinSetups ||
           (seconds_since(setup_loop) < 1.0 && setup_s.size() < kMaxSetups)) {
      setup.extractor.reset();
      setup.solver.reset();
      const auto t0 = Clock::now();
      setup = make_setup(nullptr, -1);
      if (w_.model_in_setup) {
        double s = 0.0;
        result = extract(*setup.extractor, request_, ledger, &s);
        if (!result) return {};
        extract_s.push_back(s);
        outcomes.push_back(outcome_of(*result, s));
      }
      setup_s.push_back(seconds_since(t0));
    }
    if (!w_.model_in_setup) {
      const auto loop = Clock::now();
      do {
        double s = 0.0;
        result.reset();
        result = extract(*setup.extractor, request_, ledger, &s);
        if (!result) return {};
        extract_s.push_back(s);
        outcomes.push_back(outcome_of(*result, s));
      } while (seconds_since(loop) < 0.5 * seconds_);
    }
    const SparsifiedModel& model = result->model;

    // Closed loop, one client: the next batch is sent when the last returns.
    const std::vector<Matrix> pool = pattern_pool(n(), w_.apply_batch, seed_);
    for (std::size_t b = 0; b < 3; ++b) model.apply_many(pool[b]);  // warm-up
    std::vector<double> batch_ms;
    const auto loop = Clock::now();
    while (batch_ms.size() < kMinApplyBatches || seconds_since(loop) < seconds_) {
      const Matrix& v = pool[batch_ms.size() % pool.size()];
      ++ledger.attempted;
      const auto t0 = Clock::now();
      try {
        model.apply_many(v);
      } catch (const std::exception& e) {
        ledger.fail(1, std::string("apply_many threw: ") + e.what());
      }
      batch_ms.push_back(1e3 * seconds_since(t0));
    }

    const double rel = gate(model, outcomes, pool, ledger);

    const ApplyStats apply = apply_stats(batch_ms, w_.apply_batch);
    JsonObject m;
    m.num("setup_s", median(setup_s));
    m.num("extract_s", median(extract_s));
    m.num("solves", static_cast<double>(outcomes.front().solves));
    m.num("rel_error", rel);
    m.num("gw_sparsity", outcomes.front().gw_sparsity);
    m.num("apply_vps", apply.vps);
    m.num("apply_p50_ms", apply.p50_ms);
    m.num("apply_p99_ms", apply.p99_ms);
    m.num("peak_rss_mb", peak_rss_mb());
    const double attempted = static_cast<double>(ledger.attempted);
    m.num("ok_frac", (attempted - static_cast<double>(ledger.failed)) / attempted);
    info_.raw("extract_s_each", json_array(extract_s));
    info_.raw("setup_s_each", json_array(setup_s));
    info_.num("setups", static_cast<double>(setup_s.size()));
    info_.num("apply_batches", static_cast<double>(batch_ms.size()));
    info_.num("apply_windows", static_cast<double>(apply.windows));
    info_.num("apply_quiet_batches", static_cast<double>(apply.quiet_batches));
    info_.num("apply_p50_ms_all", percentile(batch_ms, 50.0));
    info_.num("apply_p99_ms_all", percentile(batch_ms, 99.0));
    info_.num("apply_batch_vectors", static_cast<double>(w_.apply_batch));
    info_.num("nnz_q", static_cast<double>(outcomes.front().nnz_q));
    info_.num("nnz_gw", static_cast<double>(outcomes.front().nnz_gw));
    info_.str("model_checksum", hex64(outcomes.front().checksum));
    return m;
  }

  // -------------------------------------------------------------------------
  // traced: the per-layer metrics
  // -------------------------------------------------------------------------
  JsonObject run_traced(Ledger& ledger, bool overhead, const std::string& trace_out) {
    Tracer tr;
    const int root = tr.open("workload", -1);
    const int setup_id = tr.open("setup", root);
    Setup setup = make_setup(&tr, setup_id);
    tr.close(setup_id);

    // The untraced extraction comes first, so both see the same warm
    // process; it is the baseline of the tracing overhead.
    std::optional<Outcome> untraced;
    if (overhead) {
      double s = 0.0;
      const int id = tr.open("extract.untraced", root);
      const std::optional<ExtractionResult> r = extract(*setup.extractor, request_, ledger, &s);
      tr.close(id);
      if (!r) return {};
      untraced = outcome_of(*r, s);
    }

    // The traced extraction runs against the forwarding solver over the
    // set-up's quadtree (borrowed, not rebuilt). A phase span runs from the
    // previous progress callback (or the start of extract) to its own.
    const TimedSolver timed(*setup.solver, tr);
    const Extractor traced_ex(timed, setup.extractor->tree());
    const int extract_id = tr.open("extract", root);
    int pending = tr.open("phase", extract_id);
    tr.set_current(pending);
    ExtractionRequest req = request_;
    req.progress = [&](const std::string& phase, double) {
      tr.close(pending);
      tr.rename(pending, phase_layer(phase));
      pending = tr.open("phase", extract_id);
      tr.set_current(pending);
    };
    const SolverDiagnostics diag_before = timed.diagnostics();
    double traced_s = 0.0;
    const std::optional<ExtractionResult> traced = extract(traced_ex, req, ledger, &traced_s);
    tr.close(pending);
    tr.rename(pending, "extract.tail");
    tr.set_current(-1);
    tr.close(extract_id);
    if (!traced) return {};
    const SolverDiagnostics diag_after = timed.diagnostics();
    const Outcome out = outcome_of(*traced, traced_s);
    if (untraced && !same_model(*untraced, out))
      ledger.fail(1, "traced extraction differs from untraced (solves/nnz/checksum)");

    const SparsifiedModel& model = traced->model;
    const std::vector<Matrix> pool = pattern_pool(n(), w_.apply_batch, seed_);
    const ApplyStages stages = traced_apply(model, pool, tr, root, ledger);
    tr.close(root);
    if (!trace_out.empty()) tr.write(trace_out);

    gate(model, {out}, pool, ledger);

    JsonObject m;
    m.num("geometry.quadtree_s", setup.extractor->tree_build_seconds());
    m.num("substrate.construct_s", tr.totals("substrate.construct", root).seconds);
    double phase_sum = 0.0;
    for (const std::string& layer : phase_layers()) {
      const Tracer::Totals t = tr.totals(layer, extract_id);
      m.num(layer + "_s", t.seconds);
      phase_sum += t.seconds;
      if (layer == "lowrank.row_basis" || layer == "wavelet.combine_extract")
        m.num(layer + ".self_s", t.self_seconds);
    }
    const double extract_span = tr.duration(extract_id);
    m.num("bench.extract_s", extract_span);
    m.num("bench.phase_coverage", phase_sum / extract_span);
    m.num("bench.trace_overhead_s", untraced ? traced_s - untraced->seconds : 0.0);
    m.num("lowrank.solves_per_contact",
          w_.method == SparsifyMethod::kLowRank
              ? static_cast<double>(out.solves) / static_cast<double>(n())
              : 0.0);
    const Tracer::Totals batches = tr.totals("substrate.solve_many", extract_id);
    m.num("substrate.solve_many.calls", static_cast<double>(batches.count));
    m.num("substrate.columns", static_cast<double>(batches.work));
    m.num("substrate.busy_s", batches.seconds);
    m.num("substrate.s_per_column",
          batches.work > 0 ? batches.seconds / static_cast<double>(batches.work) : 0.0);
    m.num("substrate.pcg_iters",
          static_cast<double>(diag_after.iterations - diag_before.iterations));
    m.num("substrate.retries", static_cast<double>(diag_after.restarts - diag_before.restarts));
    m.num("substrate.fallback_columns",
          static_cast<double>(diag_after.direct_columns - diag_before.direct_columns));

    const double vectors = static_cast<double>(stages.vectors);
    m.num("core.apply.q_t_us", 1e6 * stages.seconds[0] / vectors);
    m.num("core.apply.gw_us", 1e6 * stages.seconds[1] / vectors);
    m.num("core.apply.q_us", 1e6 * stages.seconds[2] / vectors);
    m.num("core.apply.vector_us", 1e6 * stages.loop_seconds / vectors);
    m.num("core.apply.coverage",
          (stages.seconds[0] + stages.seconds[1] + stages.seconds[2]) /
              (static_cast<double>(thread_count()) * stages.loop_seconds));
    const double nnz_q = static_cast<double>(out.nnz_q);
    const double nnz_gw = static_cast<double>(out.nnz_gw);
    m.num("model.nnz_q", nnz_q);
    m.num("model.nnz_gw", nnz_gw);
    // Computed, not measured: Q' and Q each read Q once, G_w reads G_w once;
    // one multiply-add per stored entry. Bytes are the compulsory CSR
    // traffic (8-byte value + 8-byte column index per entry, 8-byte row
    // pointers) plus one read of the input and one write of the output
    // vector per stage.
    m.num("core.apply.flops_per_vector", 2.0 * (2.0 * nnz_q + nnz_gw));
    const double rows = static_cast<double>(n());
    const double cols_w = static_cast<double>(model.gw().rows());
    m.num("core.apply.bytes_per_vector",
          16.0 * (2.0 * nnz_q + nnz_gw) + 8.0 * (2.0 * (rows + 1.0) + cols_w + 1.0) +
              8.0 * 2.0 * (rows + cols_w + cols_w));

    info_.num("solves", static_cast<double>(out.solves));
    info_.num("nnz_q", nnz_q);
    info_.num("nnz_gw", nnz_gw);
    info_.str("model_checksum", hex64(out.checksum));
    info_.num("traced_apply_batches", static_cast<double>(stages.batches));
    return m;
  }

  const JsonObject& info() const { return info_; }

 private:
  struct ApplyStages {
    std::array<double, 3> seconds{};  ///< Q', G_w, Q stage time summed over vectors
    double loop_seconds = 0.0;        ///< wall time of the batches
    std::size_t vectors = 0;
    std::size_t batches = 0;
  };

  /// The apply loop with the three stages of SparsifiedModel::apply timed
  /// per vector, fanned out like apply_many (one pool task per column). The
  /// first batch is compared bitwise with apply_many.
  ApplyStages traced_apply(const SparsifiedModel& model, const std::vector<Matrix>& pool,
                           Tracer& tr, int root, Ledger& ledger) const {
    ApplyStages st;
    std::vector<std::array<double, 3>> per_col(w_.apply_batch, std::array<double, 3>{});
    const int loop_id = tr.open("apply", root);
    for (std::size_t b = 0; b < kTracedApplyBatches; ++b) {
      const Matrix& v = pool[b % pool.size()];
      Matrix y(v.rows(), v.cols());
      ++ledger.attempted;
      const int id = tr.open("core.apply_many", loop_id);
      const auto t0 = Clock::now();
      parallel_for(v.cols(), [&](std::size_t j) {
        const auto a = Clock::now();
        const Vector u = model.q().apply_t(v.col(j));
        const auto b1 = Clock::now();
        const Vector w = model.gw().apply(u);
        const auto c = Clock::now();
        y.set_col(j, model.q().apply(w));
        const auto d = Clock::now();
        per_col[j][0] += std::chrono::duration<double>(b1 - a).count();
        per_col[j][1] += std::chrono::duration<double>(c - b1).count();
        per_col[j][2] += std::chrono::duration<double>(d - c).count();
      });
      st.loop_seconds += seconds_since(t0);
      tr.close(id, static_cast<long>(v.cols()));
      if (b == 0) {
        const Matrix many = model.apply_many(v);
        bool equal = true;
        for (std::size_t i = 0; i < y.rows(); ++i)
          for (std::size_t j = 0; j < y.cols(); ++j)
            if (bits_of(y(i, j)) != bits_of(many(i, j))) equal = false;
        if (!equal) ledger.fail(1, "staged apply differs bitwise from apply_many");
      }
      st.vectors += v.cols();
      ++st.batches;
    }
    tr.close(loop_id);
    for (const auto& c : per_col)
      for (int k = 0; k < 3; ++k) st.seconds[static_cast<std::size_t>(k)] += c[static_cast<std::size_t>(k)];
    return st;
  }

  const Workload& w_;
  std::uint64_t seed_;
  double seconds_;
  Layout layout_;
  SubstrateStack stack_;
  ExtractionRequest request_;
  Matrix probes_, exact_;
  JsonObject info_;
};

const char* compiler_name() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --mode timed|traced [--overhead 0|1] [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  constexpr bool kOptimizedBuild = true;
#else
  constexpr bool kOptimizedBuild = false;
#endif
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "perfbench_driver: refusing to time a build without NDEBUG (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "mode"})
    if (!args.count(key)) return usage("missing argument");
  const Workload* workload = nullptr;
  for (const Workload& w : workloads())
    if (w.name == args["workload"]) workload = &w;
  if (!workload) return usage("unknown workload");
  const std::string mode = args["mode"];
  if (mode != "timed" && mode != "traced") return usage("unknown mode");
  std::uint64_t seed = 0;
  double seconds = 0.0;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  Ledger ledger;
  JsonObject metrics;
  Bench bench(*workload, seed, seconds);
  try {
    metrics = mode == "timed" ? bench.run_timed(ledger)
                              : bench.run_traced(ledger, args["overhead"] == "1",
                                                 args.count("trace-out") ? args["trace-out"] : "");
  } catch (const std::exception& e) {
    ++ledger.attempted;
    ledger.fail(1, std::string("uncaught: ") + e.what());
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < ledger.errors.size(); ++i)
    errors += (i ? ", " : "") + json_string(ledger.errors[i]);
  errors += "]";
  JsonObject out;
  out.str("mode", mode);
  out.str("workload", workload->name);
  out.raw("seed", std::to_string(seed));
  out.num("threads", static_cast<double>(thread_count()));
  out.str("backend", backend_name(active_backend()));
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.str("compiler", compiler_name());
  out.num("n", static_cast<double>(bench.n()));
  out.num("attempted", static_cast<double>(ledger.attempted));
  out.num("failed", static_cast<double>(ledger.failed));
  out.raw("errors", errors);
  out.raw("metrics", metrics.dump());
  out.raw("info", bench.info().dump());
  std::printf("%s\n", out.dump().c_str());
  return ledger.failed == 0 ? 0 : 1;
}
