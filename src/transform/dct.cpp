#include "transform/dct.hpp"

#include <cmath>

namespace subspar {

// The angle is reduced mod 2 pi in integers before the cosine.
Matrix dct2_matrix(std::size_t n) {
  constexpr double kPi = 3.14159265358979323846;
  Matrix c(n, n);
  const double nn = static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double s = std::sqrt((k == 0 ? 1.0 : 2.0) / nn);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t a = (k * (2 * j + 1)) % (4 * n);
      c(k, j) = s * std::cos(kPi * static_cast<double>(a) / (2.0 * nn));
    }
  }
  return c;
}

}  // namespace subspar
