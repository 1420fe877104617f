// Vector lanes for the GP engine's strict-IEEE loops, and the one choice of
// their width.
//
// f64x2 (two doubles, baseline SSE2) and f64x4 (four, AVX2) are GCC vector
// types: every lane operation is a plain IEEE multiply, add, subtract or
// divide of one double, so a loop written once over a lane type gives the
// same bits at either width as long as each element sees the same
// operations in the same order. Two such loops have a 4-lane clone: the
// rebuild's forward substitution (gp/gp_regressor.cpp) and the feature-major
// squared distances (gp/kernel.cpp). Each clone is a function of its unit
// under __attribute__((target("avx2"), flatten)), so the shared templates are
// compiled into it at AVX2; never "fma", which would let GCC contract a
// multiply-subtract. Nothing in the build passes -mavx2 or -march: inline
// functions compiled under such a flag are COMDAT, and the linker may hand
// their AVX2 copy to an SSE2 caller. host_isa() picks the clones once per
// process from the CPU; a host without AVX2 runs the SSE2 ones.

#pragma once

#include <cstddef>
#include <cstring>

// A function compiled without AVX that takes or returns a vector_size(32)
// value warns "AVX vector return without AVX enabled changes the ABI"
// (-Wpsabi), and EDGEBOL_WERROR makes it an error. The 4-lane template
// instantiations in the including unit are such functions: they are compiled
// for the baseline target and flattened into the AVX2 clones, and the
// warning points at their calls of load() below. The ABI it describes is
// never used across a call: every function that takes or returns a 4-lane
// vector by value (load() here, the distance loop's pack()) is
// always_inline, so it is compiled into its caller at the caller's target.
// So the warning is ignored for the rest of the including unit,
// deliberately without a pop.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace edgebol::linalg {
class CholeskyFactor;
}

namespace edgebol::gp::lanes {

using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));

template <class V>
[[gnu::always_inline]] inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// By reference: a by-value vector_size(32) parameter draws a -Wpsabi note
// that the pragma above does not silence.
template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Lane width of a clone.
enum class Isa { kSse2, kAvx2 };

/// The clones this process runs: kAvx2 when the CPU and the OS support
/// AVX2, else kSse2. Probed on first use and fixed for the process; the
/// program's only instruction-set selection.
inline Isa host_isa() {
  static const Isa isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kSse2;
  }();
  return isa;
}

inline const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "sse2";
}

// The two cloned loops, each run at the width `isa` names (kAvx2 needs a
// host with AVX2). The engine passes host_isa(); a test calls both widths
// on the same inputs and compares the bits.

/// The rebuild's forward substitution A = L^{-1} K in place over columns
/// [j0, j1) of the row-major n x m cache `a`, whose first n rows hold kernel
/// values on entry, folding each finished element into mean (with w = L^{-1}
/// y) and var (gp/gp_regressor.cpp).
void substitute_columns(Isa isa, const linalg::CholeskyFactor& chol,
                        const double* w, double* a, std::size_t m,
                        std::size_t n, std::size_t j0, std::size_t j1,
                        double* mean, double* var);

/// s[i], i < n: the squared scaled distance from z of point i of a
/// feature-major set (feature k of point i at x[k * stride + i]), with il
/// the d reciprocal length-scales (gp/kernel.cpp).
void feature_major_squared_distances(Isa isa, const double* x,
                                     std::size_t stride, std::size_t n,
                                     const double* z, const double* il,
                                     std::size_t d, double* s);

}  // namespace edgebol::gp::lanes
