#include "grid/posting_container.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "common/rng.h"

namespace hido {
namespace {

std::vector<uint32_t> RandomSortedIds(Rng& rng, size_t universe,
                                      double density) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < universe; ++i) {
    if (rng.Bernoulli(density)) ids.push_back(static_cast<uint32_t>(i));
  }
  return ids;
}

// Reference intersection count on sorted id vectors.
size_t ReferenceAndCount(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(PostingContainerTest, ThresholdDecidesRepresentation) {
  const std::vector<uint32_t> ids = {1, 5, 9};
  const PostingContainer array = PostingContainer::FromIds(ids, 64, 4);
  EXPECT_EQ(array.kind(), PostingContainer::Kind::kArray);
  const PostingContainer bitmap = PostingContainer::FromIds(ids, 64, 3);
  EXPECT_EQ(bitmap.kind(), PostingContainer::Kind::kBitmap);
  for (const PostingContainer* c : {&array, &bitmap}) {
    EXPECT_EQ(c->universe(), 64u);
    EXPECT_EQ(c->cardinality(), 3u);
    EXPECT_EQ(c->ToIds(), ids);
    EXPECT_TRUE(c->Contains(5));
    EXPECT_FALSE(c->Contains(6));
  }
}

TEST(PostingContainerTest, EmptyContainer) {
  const PostingContainer empty = PostingContainer::FromIds({}, 100, 5);
  EXPECT_EQ(empty.kind(), PostingContainer::Kind::kArray);
  EXPECT_EQ(empty.cardinality(), 0u);
  EXPECT_TRUE(empty.ToIds().empty());
  DynamicBitset dst(100);
  dst.SetAll();
  EXPECT_EQ(empty.AndInto(dst), 0u);
  EXPECT_EQ(dst.Count(), 0u);
}

// All four representation pairings compute the same intersection as the
// sorted-merge reference: either form of one set against the other set
// materialized from either form, both ways round.
TEST(PostingContainerTest, AndCountAgreesAcrossAllPairings) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t universe = 50 + rng.UniformIndex(300);
    const std::vector<uint32_t> a = RandomSortedIds(rng, universe, 0.2);
    const std::vector<uint32_t> b = RandomSortedIds(rng, universe, 0.5);
    const size_t expected = ReferenceAndCount(a, b);

    const PostingContainer a_arr =
        PostingContainer::FromIds(a, universe, universe + 1);
    const PostingContainer a_bmp = PostingContainer::FromIds(a, universe, 0);
    const PostingContainer b_arr =
        PostingContainer::FromIds(b, universe, universe + 1);
    const PostingContainer b_bmp = PostingContainer::FromIds(b, universe, 0);

    for (const PostingContainer* left : {&a_arr, &a_bmp}) {
      for (const PostingContainer* right : {&b_arr, &b_bmp}) {
        DynamicBitset left_bits(universe), right_bits(universe);
        left->MaterializeInto(left_bits);
        right->MaterializeInto(right_bits);
        EXPECT_EQ(left->AndCountWith(right_bits), expected);
        EXPECT_EQ(right->AndCountWith(left_bits), expected);  // symmetric
      }
    }
  }
}

TEST(PostingContainerTest, AndIntoAndMaterializeAgreeWithBitsetOps) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t universe = 64 + rng.UniformIndex(200);
    const std::vector<uint32_t> member_ids =
        RandomSortedIds(rng, universe, 0.3);
    DynamicBitset current(universe);
    for (size_t i = 0; i < universe; ++i) {
      if (rng.Bernoulli(0.6)) current.Set(i);
    }
    DynamicBitset expected = current;
    {
      DynamicBitset members(universe);
      for (uint32_t id : member_ids) members.Set(id);
      expected.AndWith(members);
    }
    for (size_t threshold : {size_t{0}, universe + 1}) {
      const PostingContainer container =
          PostingContainer::FromIds(member_ids, universe, threshold);
      DynamicBitset materialized(universe);
      materialized.SetAll();
      container.MaterializeInto(materialized);
      EXPECT_EQ(materialized.Count(), container.cardinality());
      DynamicBitset dst = current;
      EXPECT_EQ(container.AndInto(dst), expected.Count());
      EXPECT_EQ(dst, expected);
      EXPECT_EQ(container.AndCountWith(current), expected.Count());
    }
  }
}

TEST(PostingContainerTest, AppendIdsAppendsInOrder) {
  const PostingContainer c = PostingContainer::FromIds({2, 64, 65}, 128, 10);
  std::vector<uint32_t> out = {1};
  c.AppendIds(out);
  EXPECT_EQ(out, std::vector<uint32_t>({1, 2, 64, 65}));
}

}  // namespace
}  // namespace hido
