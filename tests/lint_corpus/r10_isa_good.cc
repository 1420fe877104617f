// lint-as: src/gp/clones.cpp
// R10 known-good: flattened avx2 / avx512f clones in either attribute
// spelling, and target() text in comments and strings, which never fires.
#include <cstddef>

[[gnu::target("avx2"), gnu::flatten]] void wide(double* a) { a[0] += a[1]; }

[[gnu::flatten, gnu::target("avx512f")]] void wider(double* a) {
  a[0] += a[1];
}

[[gnu::target("avx2"),
  gnu::flatten]] void split_list(double* a) {
  a[0] += a[1];
}

__attribute__((target("avx512f"), flatten)) void old_style(double* a) {
  a[0] += a[1];
}

// Never [[gnu::target("fma")]]: a contracted multiply-subtract rounds once.
const char* kNote = "[[gnu::target(\"avx2,fma\")]] is rejected";
