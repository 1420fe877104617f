// Vector lanes for the GP engine's strict-IEEE loops, and the one choice of
// their width.
//
// f64x2 (two doubles, baseline SSE2), f64x4 (four, AVX2) and f64x8 (eight,
// AVX-512F) are GCC vector types: every lane operation is a plain IEEE
// multiply, add, subtract, divide or square root of one double, or an
// integer operation on its bits, so a loop written once over a lane type
// gives the same bits at any width as long as each element sees the same
// operations in the same order. Five loops are written that way and have a
// clone per width: the rebuild's forward substitution and the fold/evict
// cache pass (gp/gp_regressor.cpp), and the feature-major squared distances
// and the Matérn 3/2 and RBF values with their lane exp (gp/kernel.cpp).
// Each wider clone is a function of its unit under
// __attribute__((target("avx2" or "avx512f"), flatten)), so the shared
// templates are compiled into it at that width; never "fma". The avx512f
// target brings FMA encodings with it, so the library is built with
// -ffp-contract=off (src/CMakeLists.txt): without it GCC would contract a
// multiply-subtract into one rounding and change the bits. Nothing in the
// build passes -mavx2, -mavx512f or -march: inline functions compiled under
// such a flag are COMDAT, and the linker may hand their wide copy to an
// SSE2 caller. host_isa() picks the clones once per process from the CPU; a
// host without AVX-512F runs the AVX2 ones, a host without AVX2 the SSE2
// ones.

#pragma once

#include <cstddef>
#include <cstring>

// A function compiled without AVX (AVX-512F) that takes or returns a
// vector_size(32) (vector_size(64)) value warns "AVX vector return without
// AVX enabled changes the ABI" (-Wpsabi), and EDGEBOL_WERROR makes it an
// error. The wide template instantiations in the including unit are such
// functions: they are compiled for the baseline target and flattened into
// the wide clones, and the warning points at their calls of load() below.
// The ABI it describes is never used across a call: every function or
// lambda that takes or returns a lane vector by value (load() here, the
// distance loop's pack(), and the kernel loops' exp, sqrt and value
// functors) is always_inline, so it is compiled into its caller at the
// caller's target; the cache pass's callbacks take a lane-type tag or a
// reference instead. So the warning is ignored for the rest of the
// including unit, deliberately without a pop.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace edgebol::linalg {
class CholeskyFactor;
struct GivensRotation;
}  // namespace edgebol::linalg

namespace edgebol::gp::lanes {

using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));
using f64x8 = double __attribute__((vector_size(64)));

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
enum class Isa { kSse2, kAvx2, kAvx512 };

/// The clones this process runs: the widest of kAvx512 (AVX-512F), kAvx2
/// and kSse2 that the CPU and the OS support. Probed on first use and fixed
/// for the process; the program's only instruction-set selection.
inline Isa host_isa() {
  static const Isa isa = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kSse2;
  }();
  return isa;
}

inline const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      break;
  }
  return "sse2";
}

// The five cloned loops, each run at the width `isa` names (which the host
// must support). The engine passes host_isa(); a test calls every width on
// the same inputs and compares the bits.

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

/// out[i] = amp (1 + sqrt(3 s[i])) exp(-sqrt(3 s[i])), i < n: the Matérn 3/2
/// kernel of amplitude amp at the squared scaled distances s (gp/kernel.cpp).
/// Points [0, n - n % 2) take the lane exp, an odd last point libm's exp.
/// out must not overlap s.
void matern32_values(Isa isa, double amp, const double* s, std::size_t n,
                     double* out);

/// out[i] = amp exp(-s[i] / 2), i < n: the RBF kernel, likewise.
void rbf_values(Isa isa, double amp, const double* s, std::size_t n,
                double* out);

/// One fold/evict pass over the tracked cache: the row-major cache `a`
/// (m columns, `rows` rows on entry) and the tracked moments (m entries
/// each).
struct PassState {
  double* a = nullptr;
  std::size_t m = 0;
  std::size_t rows = 0;
  /// The added observation's row a = (k(z, c) - sum_i lrow[i] a_i) / pivot
  /// joins the cache and folds into the moments with w entry w_new.
  bool fold = false;
  const double* lrow = nullptr;  // `rows` entries
  double pivot = 1.0;
  double w_new = 0.0;
  /// Then rotations[r] mixes rows (victim + r, victim + r + 1) of the cache,
  /// the new row included, and the rotated-out last row folds out of the
  /// moments with w entry w_last.
  bool evict = false;
  std::size_t victim = 0;
  const linalg::GivensRotation* rotations = nullptr;
  double w_last = 0.0;
  double* mean = nullptr;
  double* var = nullptr;
};

/// The pass over columns [j0, j1) (gp/gp_regressor.cpp). With a fold,
/// acc[j - j0] holds k(z, c_j) on entry, the new row's kernel values; acc
/// and carry are scratch of j1 - j0 entries.
void stream_columns(Isa isa, const PassState& p, std::size_t j0,
                    std::size_t j1, double* acc, double* carry);

}  // namespace edgebol::gp::lanes
