// Known-bad fixture: a vectorized transform kernel outside src/linalg. A
// "backend" in its file name does not make it part of the kernel-backend
// family: only src/linalg/backend* sits behind the CPUID gate.
namespace subspar {

using Vec4d __attribute__((vector_size(32))) = double;

void scale4(double* x, double s) {
  Vec4d v = {x[0], x[1], x[2], x[3]};
  v *= s;
  for (int i = 0; i < 4; ++i) x[i] = v[i];
}

}  // namespace subspar
