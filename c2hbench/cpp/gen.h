// Seeded generator for the scaled, unrolled program family.
//
//  * fir<N>: N unrolled taps, each behind an `if (n - k >= 0)` guard;
//  * matmul<N>: an N x N matrix product whose inner product is unrolled;
//  * oddeven-sort<N>: odd-even transposition sort, N stages, each stage's
//    compare-exchanges its own `unroll for` with constant bounds (the
//    unroller rejects one nested loop whose start depends on the outer
//    index).
//
// The family lives here, not in the workload registry, so Table 1 and the
// E-tables do not shift.  The seed draws each program's data and the order
// of a pass; the sizes come from a fixed ladder (kFirTaps, ...) so every
// seed does the same amount of work.  The program receives only the
// generated source.
#ifndef C2HBENCH_GEN_H
#define C2HBENCH_GEN_H

#include "bench.h"

#include "core/c2h.h"

#include <vector>

namespace c2hbench {

c2h::core::Workload makeFir(unsigned taps, Rng &rng);
c2h::core::Workload makeMatmul(unsigned n, Rng &rng);
c2h::core::Workload makeOddEvenSort(unsigned n, Rng &rng);

// One pass of the unrolled-scaled workload: every ladder size of every
// family, with seeded data, in seeded order.
std::vector<c2h::core::Workload> scaledPass(std::uint64_t seed);

} // namespace c2hbench

#endif // C2HBENCH_GEN_H
