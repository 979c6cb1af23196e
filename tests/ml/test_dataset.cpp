#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace esl::ml {
namespace {

Dataset imbalanced_dataset(std::size_t positives, std::size_t negatives) {
  Dataset data;
  for (std::size_t i = 0; i < positives; ++i) {
    const RealVector row = {1.0, static_cast<Real>(i)};
    data.push_back(row, 1);
  }
  for (std::size_t i = 0; i < negatives; ++i) {
    const RealVector row = {0.0, static_cast<Real>(i)};
    data.push_back(row, 0);
  }
  return data;
}

TEST(Dataset, PushBackAndCounts) {
  const Dataset data = imbalanced_dataset(3, 7);
  EXPECT_EQ(data.size(), 10u);
  EXPECT_EQ(data.feature_count(), 2u);
  EXPECT_EQ(data.positives(), 3u);
  data.check();
}

TEST(Dataset, PushBackRejectsBadLabel) {
  Dataset data;
  const RealVector row = {1.0};
  EXPECT_THROW(data.push_back(row, 2), InvalidArgument);
  EXPECT_THROW(data.push_back(row, -1), InvalidArgument);
}

TEST(Dataset, AppendConcatenates) {
  Dataset a = imbalanced_dataset(2, 2);
  const Dataset b = imbalanced_dataset(1, 3);
  a.append(b);
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a.positives(), 3u);
}

TEST(Dataset, BalanceEqualizesClasses) {
  const Dataset data = imbalanced_dataset(5, 45);
  Rng rng(2);
  const Dataset balanced = balance_classes(data, rng);
  EXPECT_EQ(balanced.size(), 10u);
  EXPECT_EQ(balanced.positives(), 5u);
}

TEST(Dataset, BalanceKeepsFeatureLabelCorrespondence) {
  const Dataset data = imbalanced_dataset(5, 45);
  Rng rng(3);
  const Dataset balanced = balance_classes(data, rng);
  for (std::size_t i = 0; i < balanced.size(); ++i) {
    EXPECT_DOUBLE_EQ(balanced.x(i, 0), static_cast<Real>(balanced.y[i]));
  }
}

TEST(Dataset, BalanceRequiresBothClasses) {
  const Dataset only_pos = imbalanced_dataset(5, 0);
  Rng rng(4);
  EXPECT_THROW(balance_classes(only_pos, rng), InvalidArgument);
}

TEST(Dataset, CheckCatchesCorruption) {
  Dataset data = imbalanced_dataset(2, 2);
  data.y.push_back(1);  // label without row
  EXPECT_THROW(data.check(), InvalidArgument);
}

}  // namespace
}  // namespace esl::ml
