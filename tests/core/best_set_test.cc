#include "core/best_set.h"

#include <gtest/gtest.h>

namespace hido {
namespace {

ScoredProjection Make(size_t dim, uint32_t cell, double sparsity,
                      size_t count = 1) {
  ScoredProjection s;
  s.projection = Projection(8);
  s.projection.Specify(dim, cell);
  s.count = count;
  s.sparsity = sparsity;
  return s;
}

TEST(BestSetTest, KeepsMostNegative) {
  BestSet best(2);
  EXPECT_TRUE(best.Offer(Make(0, 0, -1.0)));
  EXPECT_TRUE(best.Offer(Make(1, 0, -3.0)));
  EXPECT_TRUE(best.Offer(Make(2, 0, -2.0)));  // evicts -1.0
  ASSERT_EQ(best.size(), 2u);
  EXPECT_DOUBLE_EQ(best.Sorted()[0].sparsity, -3.0);
  EXPECT_DOUBLE_EQ(best.Sorted()[1].sparsity, -2.0);
}

TEST(BestSetTest, RejectsWorseWhenFull) {
  BestSet best(1);
  best.Offer(Make(0, 0, -5.0));
  EXPECT_FALSE(best.Offer(Make(1, 0, -4.0)));
  EXPECT_DOUBLE_EQ(best.Sorted()[0].sparsity, -5.0);
}

TEST(BestSetTest, DeduplicatesByProjection) {
  BestSet best(5);
  EXPECT_TRUE(best.Offer(Make(0, 3, -2.0)));
  EXPECT_FALSE(best.Offer(Make(0, 3, -2.0)));  // identical projection
  EXPECT_TRUE(best.Offer(Make(0, 4, -2.0)));   // different cell: kept
  EXPECT_EQ(best.size(), 2u);
}

TEST(BestSetTest, EvictedKeyCanReenter) {
  BestSet best(1);
  best.Offer(Make(0, 0, -1.0));
  best.Offer(Make(1, 0, -2.0));  // evicts the first
  EXPECT_TRUE(best.Offer(Make(0, 0, -3.0)));  // same projection, better run
  EXPECT_DOUBLE_EQ(best.Sorted()[0].sparsity, -3.0);
}

TEST(BestSetTest, NonEmptyFilterDropsEmptyCubes) {
  BestSet best(3);
  EXPECT_FALSE(best.Offer(Make(0, 0, -10.0, /*count=*/0)));
  EXPECT_TRUE(best.Offer(Make(1, 0, -1.0, /*count=*/2)));
  EXPECT_EQ(best.size(), 1u);
}

TEST(BestSetTest, WouldAcceptAdmitsTiesForKeyComparison) {
  BestSet best(1);
  best.Offer(Make(1, 0, -3.0));
  // Ties pass the sparsity filter; Offer decides by packed key.
  EXPECT_TRUE(best.WouldAccept(-3.0));
  EXPECT_TRUE(best.WouldAccept(-3.5));
  EXPECT_FALSE(best.WouldAccept(-2.5));
}

TEST(BestSetTest, ExactTiesBreakOnPackedKeyNotOfferOrder) {
  // Two distinct projections with identical sparsity: whichever order they
  // are offered in, the one with the smaller packed key is retained.
  const ScoredProjection low_key = Make(0, 1, -3.0);
  const ScoredProjection high_key = Make(5, 2, -3.0);
  ASSERT_TRUE(low_key.projection.PackedKey() <
              high_key.projection.PackedKey());

  BestSet forward(1);
  forward.Offer(low_key);
  EXPECT_FALSE(forward.Offer(high_key));

  BestSet backward(1);
  backward.Offer(high_key);
  EXPECT_TRUE(backward.Offer(low_key));  // displaces the tied larger key

  ASSERT_EQ(forward.size(), 1u);
  ASSERT_EQ(backward.size(), 1u);
  EXPECT_TRUE(forward.Sorted()[0].projection ==
              backward.Sorted()[0].projection);
}

TEST(BestSetTest, TiedEntriesSortedByKeyAscending) {
  BestSet best(4);
  best.Offer(Make(3, 0, -1.0));
  best.Offer(Make(1, 0, -1.0));
  best.Offer(Make(2, 0, -1.0));
  best.Offer(Make(0, 0, -2.0));
  const auto& sorted = best.Sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_DOUBLE_EQ(sorted[0].sparsity, -2.0);
  for (size_t i = 2; i < sorted.size(); ++i) {
    EXPECT_TRUE(sorted[i - 1].projection.PackedKey() <
                sorted[i].projection.PackedKey());
  }
}

TEST(BestSetTest, MeanSparsityIsTable1Quality) {
  BestSet best(3);
  best.Offer(Make(0, 0, -1.0));
  best.Offer(Make(1, 0, -2.0));
  best.Offer(Make(2, 0, -3.0));
  EXPECT_DOUBLE_EQ(best.MeanSparsity(), -2.0);
}

TEST(BestSetTest, SortedIsStableAscending) {
  BestSet best(10);
  for (int i = 0; i < 8; ++i) {
    best.Offer(Make(static_cast<size_t>(i), 0, -static_cast<double>(i)));
  }
  const auto& sorted = best.Sorted();
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].sparsity, sorted[i].sparsity);
  }
}

TEST(BestSetDeathTest, ZeroCapacityAborts) {
  EXPECT_DEATH(BestSet(0), "capacity");
}

}  // namespace
}  // namespace hido
