// Unit tests for the esl::simd pack vocabulary (common/simd.hpp).
//
// The kernel suites prove end-to-end parity; these pin the individual
// pack operations — load/store/broadcast, arithmetic, the unfused fma,
// the interleaved-pair shuffles, and the comparison masks, select, abs
// and gather — at every width the abstraction ships (1, 2, 4), so a
// miscompiled shuffle can't hide behind a coincidentally-correct kernel.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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
void expect_mask_ops() {
  SCOPED_TRACE("width " + std::to_string(W));
  using P = Pack<Real, W>;
  using M = Mask<W>;
  const Real nan = std::nan("");
  // Each lane position gets a turn at every row, so every width sees
  // signed zeros, NaN and infinities.
  const Real rows[][4] = {
      {1.0, -2.0, 0.0, nan},
      {-0.0, -2.0, nan, 3.0},
      {-INFINITY, INFINITY, -0.0, 0.0},
      {nan, 5.0, -1.0, -0.0},
  };
  for (int shift = 0; shift < 4; ++shift) {
    Real a_in[4];
    Real b_in[4];
    for (int i = 0; i < 4; ++i) {
      a_in[i] = rows[(shift + i) % 4][i];
      b_in[i] = rows[(shift + i + 1) % 4][(i + 2) % 4];
    }
    const P a = P::load(a_in);
    const P b = P::load(b_in);
    const M lt = less(a, b);
    const M ne = not_equal(a, b);
    const P lower = select(lt, a, b);
    const P magnitude = simd::abs(a);
    for (int i = 0; i < W; ++i) {
      EXPECT_EQ(lt.lane(i), a_in[i] < b_in[i] ? -1 : 0) << "lane " << i;
      EXPECT_EQ(ne.lane(i), a_in[i] != b_in[i] ? -1 : 0) << "lane " << i;
      const Real expected_lower = a_in[i] < b_in[i] ? a_in[i] : b_in[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(lower.lane(i)),
                std::bit_cast<std::uint64_t>(expected_lower))
          << "lane " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(magnitude.lane(i)),
                std::bit_cast<std::uint64_t>(std::abs(a_in[i])))
          << "lane " << i;
      // Mask algebra: the lanes combine and count as integers.
      EXPECT_EQ((lt & ne).lane(i), lt.lane(i) & ne.lane(i));
      EXPECT_EQ((lt | ne).lane(i), lt.lane(i) | ne.lane(i));
      EXPECT_EQ((lt ^ ne).lane(i), lt.lane(i) ^ ne.lane(i));
      EXPECT_EQ((M::zero() - lt).lane(i), a_in[i] < b_in[i] ? 1 : 0);
    }
  }
  // gather: lane j reads row j at the index.
  const Real* row_pointers[4] = {rows[0], rows[1], rows[2], rows[3]};
  const P gathered = P::gather(row_pointers, 1);
  for (int j = 0; j < W; ++j) {
    EXPECT_EQ(gathered.lane(j), rows[j][1]);
  }
}

TEST(SimdPack, MaskSelectAbsAndGatherAtEveryWidth) {
  expect_mask_ops<1>();
  expect_mask_ops<2>();
  expect_mask_ops<4>();
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
