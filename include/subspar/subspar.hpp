// subspar public API — umbrella header.
//
// Everything a downstream user (and this repo's examples and benches) needs:
//
//   subspar/geometry.hpp    contact layouts, generators, quadtree
//   subspar/substrate.hpp   substrate stack + black-box solver interface
//   subspar/solvers.hpp     solver factory (make_solver)
//   subspar/extraction.hpp  ExtractionRequest -> Extractor -> ExtractionResult
//   subspar/status.hpp      ErrorCode/ExtractionError/Status error model
//   subspar/model.hpp       SparsifiedModel + save_model/load_model
//   subspar/cache.hpp       keyed ModelCache (memoized + persisted models)
//   subspar/service.hpp     ExtractionService concurrent job engine
//   subspar/report.hpp      accuracy/sparsity scoring vs exact columns
//   subspar/methods.hpp     wavelet / low-rank method internals
//   subspar/linalg.hpp      Vector/Matrix/SparseMatrix/SVD
//   subspar/transform.hpp   DCT-II matrix, fast-Poisson solver
//   subspar/circuit.hpp     MNA netlist + transient simulator
//   subspar/util.hpp        checks, RNG, timers, tables, thread pool
//
// The canonical flow:
//
//   auto solver = make_solver(SolverKind::kSurface, layout, stack);
//   Extractor engine(*solver, layout);
//   ExtractionResult r = engine.extract({.threshold_sparsity_multiple = 6.0});
//   Vector currents = r.model.apply(voltages);
//
// or, with reuse across identical requests / processes:
//
//   ModelCache cache("models/");
//   ExtractionResult r = cache.get_or_extract(*solver, layout, stack, request);
#pragma once

#include "subspar/cache.hpp"
#include "subspar/circuit.hpp"
#include "subspar/extraction.hpp"
#include "subspar/geometry.hpp"
#include "subspar/linalg.hpp"
#include "subspar/methods.hpp"
#include "subspar/model.hpp"
#include "subspar/report.hpp"
#include "subspar/service.hpp"
#include "subspar/solvers.hpp"
#include "subspar/status.hpp"
#include "subspar/substrate.hpp"
#include "subspar/transform.hpp"
#include "subspar/util.hpp"
