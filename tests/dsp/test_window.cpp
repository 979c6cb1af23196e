#include "dsp/window.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace esl::dsp {
namespace {

TEST(Window, HannPeriodicOmitsFinalZero) {
  const RealVector w = hann_window(8);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w[4], 1.0, 1e-12);  // the peak sits at n/2
  EXPECT_GT(w.back(), 0.0);
}

TEST(Window, SymmetricWindowsAreSymmetric) {
  // The periodic window is DFT-even: w[i] == w[n - i] for 0 < i < n.
  for (const std::size_t n : {32u, 33u}) {
    const RealVector w = hann_window(n);
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_NEAR(w[i], w[n - i], 1e-12) << "n " << n << " i " << i;
    }
  }
}

TEST(Window, ValuesBoundedByOne) {
  for (const Real v : hann_window(64)) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(Window, SingleSampleIsOne) {
  const RealVector w = hann_window(1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(Window, HannPowerIsThreeEighthsN) {
  // Periodic Hann: sum of squares = 3N/8.
  const RealVector w = hann_window(256);
  EXPECT_NEAR(window_power(w), 3.0 * 256.0 / 8.0, 1e-9);
}

TEST(Window, RejectsZeroLength) {
  EXPECT_THROW(hann_window(0), InvalidArgument);
}

}  // namespace
}  // namespace esl::dsp
