#include "signal/sample_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/error.hpp"
#include "common/random.hpp"

namespace esl::signal {
namespace {

RealVector iota(std::size_t n, Real start = 0.0) {
  RealVector v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

TEST(SampleRing, RejectsZeroCapacity) {
  EXPECT_THROW(SampleRing(0), InvalidArgument);
}

TEST(SampleRing, PushAndCopyFrontPreservesOrder) {
  SampleRing ring(8);
  const RealVector v = iota(5);
  ring.push(v);
  EXPECT_EQ(ring.size(), 5u);

  RealVector out(5);
  ring.copy_front(5, out);
  EXPECT_EQ(out, v);
}

TEST(SampleRing, OverflowDropsOldest) {
  SampleRing ring(4);
  ring.push(iota(3));          // 0 1 2
  ring.push(iota(3, 3.0));     // 3 4 5 -> drops 0 1
  EXPECT_EQ(ring.size(), 4u);

  RealVector out(4);
  ring.copy_all(out);
  EXPECT_EQ(out, (RealVector{2.0, 3.0, 4.0, 5.0}));
}

TEST(SampleRing, BlockLargerThanCapacityKeepsTail) {
  SampleRing ring(4);
  ring.push(iota(2));   // pre-fill so the bulk path also replaces them
  ring.push(iota(10));  // only 6 7 8 9 survive
  EXPECT_EQ(ring.size(), 4u);

  RealVector out(4);
  ring.copy_all(out);
  EXPECT_EQ(out, (RealVector{6.0, 7.0, 8.0, 9.0}));
}

TEST(SampleRing, CopyFrontChecksBounds) {
  SampleRing ring(4);
  ring.push(iota(2));
  RealVector out(4);
  EXPECT_THROW(ring.copy_front(3, out), InvalidArgument);
  EXPECT_THROW(ring.copy_back(3, out), InvalidArgument);
  RealVector small(1);
  EXPECT_THROW(ring.copy_back(2, small), InvalidArgument);
}

TEST(SampleRing, ManySmallPushesMatchOneBigPush) {
  SampleRing a(100);
  SampleRing b(100);
  const RealVector v = iota(257);
  b.push(v);
  for (std::size_t i = 0; i < v.size(); i += 3) {
    const std::size_t n = std::min<std::size_t>(3, v.size() - i);
    a.push(std::span<const Real>(v).subspan(i, n));
  }
  ASSERT_EQ(a.size(), b.size());
  RealVector out_a(a.size());
  RealVector out_b(b.size());
  a.copy_all(out_a);
  b.copy_all(out_b);
  EXPECT_EQ(out_a, out_b);
}

TEST(SampleRing, RandomOperationsMatchDequeOracle) {
  // Random push sizes (some above capacity, which take the bulk path),
  // interleaved with reads of the oldest and of the newest samples,
  // against a deque that keeps the newest `capacity` samples. Thousands
  // of pushes wrap the storage many times, so reads straddle its end.
  Rng rng(29);
  for (const std::size_t capacity : {1u, 2u, 7u, 64u}) {
    SampleRing ring(capacity);
    std::deque<Real> oracle;
    Real next = 0.0;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.uniform_index(4);
      if (op <= 1) {
        RealVector block(rng.uniform_index(2 * capacity + 3));
        for (Real& v : block) {
          v = next;
          next += 1.0;
          oracle.push_back(v);
        }
        while (oracle.size() > capacity) {
          oracle.pop_front();
        }
        ring.push(block);
      } else {
        const std::size_t count = rng.uniform_index(oracle.size() + 1);
        RealVector out(count);
        if (op == 2) {
          ring.copy_front(count, out);
          ASSERT_TRUE(std::equal(out.begin(), out.end(), oracle.begin()))
              << "capacity " << capacity << ", step " << step;
        } else {
          ring.copy_back(count, out);
          ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                 oracle.end() -
                                     static_cast<std::ptrdiff_t>(count)))
              << "capacity " << capacity << ", step " << step;
        }
      }
      ASSERT_EQ(ring.size(), oracle.size())
          << "capacity " << capacity << ", step " << step;
    }
    RealVector all(ring.size());
    ring.copy_all(all);
    EXPECT_TRUE(std::equal(all.begin(), all.end(), oracle.begin()));
  }
}

}  // namespace
}  // namespace esl::signal
