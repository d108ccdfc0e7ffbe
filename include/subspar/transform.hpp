// Public header: the orthonormal DCT-II matrix and the fast Poisson solver
// built on it — exposed for the micro-kernel benches and for callers
// embedding the eigenfunction operator.
#pragma once

#include "transform/dct.hpp"
#include "transform/poisson.hpp"
