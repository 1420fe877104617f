// lint-as: src/gp/kernel_fast_math.cpp
// R10 known-bad: any clone in the fast-math kernel unit. A wider target
// swaps libmvec's exp variant, and the 2- and 4-lane ones disagree.
#include <cmath>

[[gnu::target("avx2"), gnu::flatten]] void exp_loop(double* s, int n) {  // lint-expect: isa
  for (int i = 0; i < n; ++i) s[i] = std::exp(-s[i]);
}
