// lint-as: src/gp/clones.cpp
// R10 known-bad: ISA clones that name a feature other than avx2/avx512f
// (fma would contract the multiply-subtracts the SSE2 code rounds twice),
// or that lack flatten, so the templates they call stay at the baseline
// width.
#include <cstddef>

[[gnu::target("avx2,fma"), gnu::flatten]] void fused(double* a) {  // lint-expect: isa
  a[0] -= a[1] * a[2];
}

[[gnu::target("avx512f")]] void unflattened(double* a) {  // lint-expect: isa
  a[0] -= a[1] * a[2];
}

[[gnu::flatten, gnu::target("arch=sapphirerapids")]] void arch(  // lint-expect: isa
    double* a) {
  a[0] += a[1];
}

__attribute__((target("sse4.2"))) void old_style(double* a) {  // lint-expect: isa
  a[0] += a[1];
}

[[gnu::target("fma"),  // lint-expect: isa
  gnu::flatten]] void split_list(double* a) {
  a[0] -= a[1] * a[2];
}
