// simd: the fixed-order kernels of the peel hot path.
//
// Two kernels back PeelState's blocked detection index:
//
//  * FixedOrderSum    — reduction over a span of doubles in the CANONICAL
//                       LANE-THEN-TREE ORDER (below), used for block-sum
//                       refresh and SuffixWeight tails.
//  * SuffixScanBlock  — tail-to-head inclusive suffix scan in the canonical
//                       4-lane Hillis-Steele order, the pre-pass feeding the
//                       hull rebuild's scalar monotone stack.
//
// Fixed-order contract. Floating-point addition is not associative, so
// Detect is only reproducible if every block sum commits to one fixed
// association order. The canonical orders below are that order: a cached
// block sum is bit-identical whichever refresh path computed it, and the
// tie-exactness suites compare Detect bit-for-bit against the naive scan.
// The orders are written as independent lane chains (16 for the sum, 4 for
// the scan) so the compiler can keep several adds in flight and vectorize
// them without changing a single bit of the result.
//
//  Canonical sum order (kSumLanes = 16): sixteen logical accumulators
//  stride the span head-to-tail, acc[j] += p[16*g + j]; the tail remainder
//  r = n%16 adds p[n - r + j] into acc[j] for j < r; the final value is the
//  fixed tree (((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))) +
//  (((a8+a9)+(a10+a11)) + ((a12+a13)+(a14+a15))). Sixteen chains, not one,
//  so the loop is bound by load throughput rather than by the 4-5 cycle
//  FP-add latency of a single accumulator.
//
//  Canonical scan order (kScanLanes = 4): groups of four are anchored at
//  the TAIL and processed tail-to-head with a running carry C (the suffix
//  sum beyond the group). Within a group [d0..d3] the two Hillis-Steele
//  steps give s3 = d3, s2 = d2+d3, s1 = (d1+d2)+d3, s0 = (d0+d1)+(d2+d3),
//  and the stored values are s_i + C; the next carry is s0 + C. The head
//  remainder (n % 4 elements) is sequential: out[i] = p[i] + out[i+1].

#pragma once

#include <cstddef>

namespace spade::simd {

/// Logical lane counts of the canonical orders.
inline constexpr std::size_t kSumLanes = 16;
inline constexpr std::size_t kScanLanes = 4;

/// Best-effort cache-line prefetch for read (locality hint 3). A no-op on
/// compilers without the builtin.
#if defined(__GNUC__) || defined(__clang__)
#define SPADE_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#define SPADE_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1, 3)
#else
#define SPADE_PREFETCH(addr) ((void)0)
#define SPADE_PREFETCH_WRITE(addr) ((void)0)
#endif

/// Sum of `p[0..n)` in the canonical lane-then-tree order.
inline double FixedOrderSum(const double* p, std::size_t n) {
  double acc[kSumLanes] = {};
  const std::size_t ng = n - n % kSumLanes;
  for (std::size_t i = 0; i < ng; i += kSumLanes) {
    for (std::size_t j = 0; j < kSumLanes; ++j) acc[j] += p[i + j];
  }
  for (std::size_t j = 0; j + ng < n; ++j) acc[j] += p[ng + j];
  return (((acc[0] + acc[1]) + (acc[2] + acc[3])) +
          ((acc[4] + acc[5]) + (acc[6] + acc[7]))) +
         (((acc[8] + acc[9]) + (acc[10] + acc[11])) +
          ((acc[12] + acc[13]) + (acc[14] + acc[15])));
}

/// Inclusive tail-to-head suffix scan in the canonical 4-lane order:
/// out[i] = p[i] + out[i+1] association as defined above. `out` may not
/// alias `p`. Returns out[0] (the span total in scan order — which may
/// differ from FixedOrderSum by ulps; callers must not mix the two as if
/// bit-equal).
inline double SuffixScanBlock(const double* p, std::size_t n, double* out) {
  double carry = 0.0;
  const std::size_t rem = n % kScanLanes;
  std::size_t i = n;
  while (i > rem) {
    i -= kScanLanes;
    const double d0 = p[i + 0], d1 = p[i + 1], d2 = p[i + 2], d3 = p[i + 3];
    // Two Hillis-Steele steps. The `+ 0.0` terms are the zeros a lane shift
    // moves in; they turn a -0.0 lane into +0.0, so they are part of the
    // canonical order and stay.
    const double a0 = d0 + d1, a1 = d1 + d2, a2 = d2 + d3, a3 = d3 + 0.0;
    const double s0 = a0 + a2, s1 = a1 + a3, s2 = a2 + 0.0, s3 = a3 + 0.0;
    out[i + 0] = s0 + carry;
    out[i + 1] = s1 + carry;
    out[i + 2] = s2 + carry;
    out[i + 3] = s3 + carry;
    carry = out[i + 0];
  }
  while (i-- > 0) {
    carry = p[i] + carry;
    out[i] = carry;
  }
  return n > 0 ? out[0] : 0.0;
}

}  // namespace spade::simd
