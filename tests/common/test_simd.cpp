// Unit tests for the esl::simd pack vocabulary (common/simd.hpp).
//
// The kernel suites prove end-to-end parity; these pin the individual
// pack operations — load/store/broadcast, arithmetic, the unfused fma
// and the interleaved-pair shuffles — at every width the abstraction
// ships (1, 2, 4), so a miscompiled shuffle can't hide behind a
// coincidentally-correct kernel.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace esl::simd {
namespace {

template <int W>
void expect_pack_ops() {
  SCOPED_TRACE("width " + std::to_string(W));
  using P = Pack<Real, W>;
  const Real input_a[] = {1.5, -2.0, 3.25, 0.5};
  const Real input_b[] = {2.0, -2.0, -4.0, 8.0};

  // load / store round-trip.
  const P a = P::load(input_a);
  const P b = P::load(input_b);
  Real out[W];
  a.store(out);
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ(out[i], input_a[i]);
    EXPECT_EQ(a.lane(i), input_a[i]);
  }

  // broadcast / zero.
  const P c = P::broadcast(7.0);
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ(c.lane(i), 7.0);
    EXPECT_EQ(P::zero().lane(i), 0.0);
  }

  // Arithmetic and the unfused fma (must equal separate mul-then-add).
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ((a + b).lane(i), input_a[i] + input_b[i]);
    EXPECT_EQ((a - b).lane(i), input_a[i] - input_b[i]);
    EXPECT_EQ((a * b).lane(i), input_a[i] * input_b[i]);
    EXPECT_EQ(fma(a, b, c).lane(i), input_a[i] * input_b[i] + 7.0);
  }
}

TEST(SimdPack, OpsAtEveryWidth) {
  expect_pack_ops<1>();
  expect_pack_ops<2>();
  expect_pack_ops<4>();
}

template <int W>
void expect_pair_shuffles() {
  SCOPED_TRACE("width " + std::to_string(W));
  using P = Pack<Real, W>;
  const Real input_a[] = {1.0, 2.0, 3.0, 4.0};
  const Real input_b[] = {5.0, 6.0, 7.0, 8.0};
  const P a = P::load(input_a);
  const P b = P::load(input_b);

  for (int i = 0; i < W; i += 2) {
    EXPECT_EQ(dup_even(a).lane(i), input_a[i]);
    EXPECT_EQ(dup_even(a).lane(i + 1), input_a[i]);
    EXPECT_EQ(dup_odd(a).lane(i), input_a[i + 1]);
    EXPECT_EQ(dup_odd(a).lane(i + 1), input_a[i + 1]);
    EXPECT_EQ(swap_pairs(a).lane(i), input_a[i + 1]);
    EXPECT_EQ(swap_pairs(a).lane(i + 1), input_a[i]);
    // reverse_pairs flips complex-element order: pair i <- pair (W/2-1-i).
    EXPECT_EQ(reverse_pairs(a).lane(i), input_a[W - 2 - i]);
    EXPECT_EQ(reverse_pairs(a).lane(i + 1), input_a[W - 1 - i]);
  }
  // even/odd elements of the concatenation [a | b].
  for (int i = 0; i < W / 2; ++i) {
    EXPECT_EQ(even_elements(a, b).lane(i), input_a[2 * i]);
    EXPECT_EQ(even_elements(a, b).lane(W / 2 + i), input_b[2 * i]);
    EXPECT_EQ(odd_elements(a, b).lane(i), input_a[2 * i + 1]);
    EXPECT_EQ(odd_elements(a, b).lane(W / 2 + i), input_b[2 * i + 1]);
  }
}

TEST(SimdPack, InterleavedPairShufflesAtVectorWidths) {
  expect_pair_shuffles<2>();
  expect_pair_shuffles<4>();
}

}  // namespace
}  // namespace esl::simd
