#include "common/bitset_kernels.h"

#include <bit>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "common/rng.h"

namespace hido {
namespace {

TEST(BitsetKernelsTest, NamesRoundTrip) {
  for (KernelKind kind :
       {KernelKind::kScalar, KernelKind::kAvx2, KernelKind::kNeon}) {
    KernelKind parsed;
    ASSERT_TRUE(ParseKernelKind(KernelKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  KernelKind parsed;
  EXPECT_FALSE(ParseKernelKind("auto", &parsed));
  EXPECT_FALSE(ParseKernelKind("", &parsed));
  EXPECT_FALSE(ParseKernelKind("sse", &parsed));
}

TEST(BitsetKernelsTest, ScalarAlwaysAvailable) {
  const BitsetKernels* scalar = KernelTableFor(KernelKind::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->kind, KernelKind::kScalar);
  EXPECT_STREQ(scalar->name, "scalar");
  const std::vector<KernelKind> available = AvailableKernels();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.back(), KernelKind::kScalar);
  // Every advertised kernel resolves to a complete table.
  for (KernelKind kind : available) {
    const BitsetKernels* table = KernelTableFor(kind);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->kind, kind);
    EXPECT_NE(table->and_count_many, nullptr);
    EXPECT_NE(table->and_with, nullptr);
    EXPECT_NE(table->and_count_into, nullptr);
  }
  EXPECT_EQ(BestAvailableKernel(), available.front());
}

TEST(BitsetKernelsTest, ScopedOverrideForcesAndRestores) {
  const KernelKind ambient = ActiveKernelKind();
  for (KernelKind kind : AvailableKernels()) {
    ScopedKernelOverride forced(kind);
    EXPECT_EQ(ActiveKernelKind(), kind);
    EXPECT_EQ(ActiveKernels().kind, kind);
  }
  EXPECT_EQ(ActiveKernelKind(), ambient);
}

TEST(BitsetKernelsTest, OverridesNest) {
  ScopedKernelOverride outer(KernelKind::kScalar);
  {
    ScopedKernelOverride inner(BestAvailableKernel());
    EXPECT_EQ(ActiveKernelKind(), BestAvailableKernel());
  }
  EXPECT_EQ(ActiveKernelKind(), KernelKind::kScalar);
}

// Population count of srcs[0] & ... & srcs[k-1] over n words, one word
// at a time: the reference the scalar kernel is checked against.
size_t AndCountByWord(const std::vector<const uint64_t*>& srcs, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = ~uint64_t{0};
    for (const uint64_t* src : srcs) w &= src[i];
    count += static_cast<size_t>(std::popcount(w));
  }
  return count;
}

// The fused k-way count is tested for k = 1..10: k = 1 is the popcount,
// k = 2 the two-way AND count, 2..8 are unrolled, 9 and 10 take the
// runtime-k loop.
constexpr size_t kMaxTestedSources = 10;

// Every kernel computes the same pure functions: compare each available
// kernel's raw word primitives against the scalar reference on random
// word arrays (including n = 0 and odd tails that miss the unroll width).
TEST(BitsetKernelsTest, KernelsAgreeWithScalarOnRandomWords) {
  const BitsetKernels& scalar = *KernelTableFor(KernelKind::kScalar);
  Rng rng(17);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 31u, 63u, 64u, 65u, 313u,
                   1563u}) {
    std::vector<uint64_t> buffer(kMaxTestedSources * (n + kMaxTestedSources));
    for (uint64_t& w : buffer) {
      // Dense words, so a 10-way AND still leaves bits to count.
      w = rng.Next64() | rng.Next64() | rng.Next64();
    }
    // Source j starts j words into its own slice of the buffer, so the k
    // sources sit at different alignments.
    std::vector<const uint64_t*> srcs;
    for (size_t j = 0; j < kMaxTestedSources; ++j) {
      srcs.push_back(buffer.data() + j * (n + kMaxTestedSources) + j);
    }
    for (size_t k = 1; k <= kMaxTestedSources; ++k) {
      const std::vector<const uint64_t*> first_k(srcs.begin(),
                                                 srcs.begin() + k);
      const size_t expected = AndCountByWord(first_k, n);
      EXPECT_EQ(scalar.and_count_many(first_k.data(), k, n), expected)
          << "scalar and_count_many k=" << k << " n=" << n;
      for (KernelKind kind : AvailableKernels()) {
        EXPECT_EQ(KernelTableFor(kind)->and_count_many(first_k.data(), k, n),
                  expected)
            << KernelKindName(kind) << " and_count_many k=" << k
            << " n=" << n;
      }
    }

    const uint64_t* a = srcs[0];
    const uint64_t* b = srcs[1];
    for (KernelKind kind : AvailableKernels()) {
      const BitsetKernels& kernels = *KernelTableFor(kind);
      std::vector<uint64_t> kernel_dst(a, a + n);
      std::vector<uint64_t> scalar_dst(a, a + n);
      kernels.and_with(kernel_dst.data(), b, n);
      scalar.and_with(scalar_dst.data(), b, n);
      EXPECT_EQ(kernel_dst, scalar_dst)
          << KernelKindName(kind) << " and_with n=" << n;

      std::vector<uint64_t> fused_dst(a, a + n);
      const size_t fused = kernels.and_count_into(fused_dst.data(), b, n);
      EXPECT_EQ(fused_dst, scalar_dst)
          << KernelKindName(kind) << " and_count_into words n=" << n;
      EXPECT_EQ(fused, AndCountByWord({scalar_dst.data()}, n))
          << KernelKindName(kind) << " and_count_into count n=" << n;
    }
  }
}

// DynamicBitset boundary behaviour, pinned per kernel: sizes straddling
// the 64-bit word boundary exercise MaskTail, tail-word Count, AndCount
// over mismatched tail words, and AppendSetBits ordering.
class BitsetKernelBoundary
    : public ::testing::TestWithParam<std::tuple<KernelKind, size_t>> {
 protected:
  static bool KernelAvailable() {
    return KernelTableFor(std::get<0>(GetParam())) != nullptr;
  }
};

TEST_P(BitsetKernelBoundary, SetAllCountRespectsMaskTail) {
  if (!KernelAvailable()) GTEST_SKIP() << "kernel unavailable on this host";
  const ScopedKernelOverride forced(std::get<0>(GetParam()));
  const size_t size = std::get<1>(GetParam());
  DynamicBitset b(size);
  EXPECT_EQ(b.Count(), 0u);
  b.SetAll();
  EXPECT_EQ(b.Count(), size);  // MaskTail: no phantom bits past size
  b.ClearAll();
  EXPECT_EQ(b.Count(), 0u);
}

TEST_P(BitsetKernelBoundary, AndCountWithMismatchedTailWords) {
  if (!KernelAvailable()) GTEST_SKIP() << "kernel unavailable on this host";
  const ScopedKernelOverride forced(std::get<0>(GetParam()));
  const size_t size = std::get<1>(GetParam());
  if (size == 0) {
    DynamicBitset a(0), b(0);
    EXPECT_EQ(a.AndCount(b), 0u);
    return;
  }
  // a: everything; b: only the last bit — the tail words disagree
  // everywhere except the final bit.
  DynamicBitset a(size), b(size);
  a.SetAll();
  b.Set(size - 1);
  EXPECT_EQ(a.AndCount(b), 1u);
  EXPECT_EQ(b.AndCount(a), 1u);
  // Odd-even split within the tail word.
  DynamicBitset evens(size), odds(size);
  for (size_t i = 0; i < size; i += 2) evens.Set(i);
  for (size_t i = 1; i < size; i += 2) odds.Set(i);
  EXPECT_EQ(evens.AndCount(odds), 0u);
  EXPECT_EQ(evens.AndCount(a), evens.Count());
  EXPECT_EQ(evens.Count() + odds.Count(), size);
}

// The k-way count over k = 1..10 bitsets whose tail words disagree: set j
// holds every bit but the j-th from the top, so each source's ragged tail
// word changes the count; one set is random, so the count is not a
// function of the size alone.
TEST_P(BitsetKernelBoundary, AndCountManyOverRaggedTails) {
  if (!KernelAvailable()) GTEST_SKIP() << "kernel unavailable on this host";
  const BitsetKernels& kernels = *KernelTableFor(std::get<0>(GetParam()));
  const size_t size = std::get<1>(GetParam());
  Rng rng(7 + size);
  std::vector<DynamicBitset> sets;
  for (size_t j = 0; j < kMaxTestedSources; ++j) {
    DynamicBitset bits(size);
    bits.SetAll();
    if (j < size) bits.Clear(size - 1 - j);
    sets.push_back(std::move(bits));
  }
  for (size_t i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.4)) sets[kMaxTestedSources / 2].Clear(i);
  }
  std::vector<const uint64_t*> srcs;
  for (const DynamicBitset& bits : sets) srcs.push_back(bits.words());
  for (size_t k = 1; k <= kMaxTestedSources; ++k) {
    size_t expected = 0;
    for (size_t i = 0; i < size; ++i) {
      bool all = true;
      for (size_t j = 0; j < k; ++j) all = all && sets[j].Test(i);
      expected += all ? 1 : 0;
    }
    EXPECT_EQ(kernels.and_count_many(srcs.data(), k, sets[0].num_words()),
              expected)
        << "k=" << k;
  }
}

TEST_P(BitsetKernelBoundary, FusedAndCountIntoMatchesTwoPass) {
  if (!KernelAvailable()) GTEST_SKIP() << "kernel unavailable on this host";
  const ScopedKernelOverride forced(std::get<0>(GetParam()));
  const size_t size = std::get<1>(GetParam());
  Rng rng(91 + size);
  DynamicBitset a(size), b(size);
  for (size_t i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.5)) a.Set(i);
    if (rng.Bernoulli(0.3)) b.Set(i);
  }
  DynamicBitset two_pass = a;
  two_pass.AndWith(b);
  DynamicBitset fused = a;
  EXPECT_EQ(fused.AndCountInto(b), two_pass.Count());
  EXPECT_EQ(fused, two_pass);
}

TEST_P(BitsetKernelBoundary, AppendSetBitsAscending) {
  if (!KernelAvailable()) GTEST_SKIP() << "kernel unavailable on this host";
  const ScopedKernelOverride forced(std::get<0>(GetParam()));
  const size_t size = std::get<1>(GetParam());
  DynamicBitset b(size);
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < size; i += 7) {
    b.Set(i);
    expected.push_back(static_cast<uint32_t>(i));
  }
  if (size > 0 && (size - 1) % 7 != 0) {
    b.Set(size - 1);
    expected.push_back(static_cast<uint32_t>(size - 1));
  }
  std::vector<uint32_t> out;
  b.AppendSetBits(out);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(b.Count(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(
    KernelsTimesSizes, BitsetKernelBoundary,
    ::testing::Combine(::testing::Values(KernelKind::kScalar,
                                         KernelKind::kAvx2,
                                         KernelKind::kNeon),
                       ::testing::Values(0, 1, 63, 64, 65, 127, 128)),
    [](const ::testing::TestParamInfo<std::tuple<KernelKind, size_t>>& info) {
      return std::string(KernelKindName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hido
