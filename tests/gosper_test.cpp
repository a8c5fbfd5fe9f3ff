#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "combinatorics/gosper.hpp"

namespace rbc::comb {
namespace {

TEST(GosperNext, ClassicSmallSequence) {
  // k=2 over a small word: 0b0011 -> 0b0101 -> 0b0110 -> 0b1001 -> ...
  Seed256 m = Seed256::low_bits(2);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b0101u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b0110u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b1001u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b1010u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b1100u);
}

TEST(GosperNext, PreservesPopcountAcrossWordBoundaries) {
  // Start with bits straddling the word-0/word-1 boundary.
  Seed256 m;
  m.set_bit(62);
  m.set_bit(63);
  m.set_bit(10);
  for (int i = 0; i < 1000; ++i) {
    const Seed256 next = gosper_next(m);
    EXPECT_EQ(next.popcount(), 3);
    EXPECT_GT(next, m);
    m = next;
  }
}

TEST(GosperNext, EnumeratesExactlyAllSubsetsInNumericOrder) {
  const int n = 10, k = 3;
  Seed256 m = Seed256::low_bits(k);
  std::vector<Seed256> seen;
  const u64 total = binomial64(n, k);
  for (u64 i = 0; i < total; ++i) {
    EXPECT_EQ(m.popcount(), k);
    EXPECT_LE(m.highest_set_bit(), n - 1);
    if (!seen.empty()) {
      EXPECT_GT(m, seen.back());
    }
    seen.push_back(m);
    m = gosper_next(m);
  }
  // After exhausting the n-bit subsets, the next mask escapes above bit n-1.
  EXPECT_GT(seen.size(), 0u);
  EXPECT_EQ(seen.size(), total);
}

TEST(GosperIterator, ProducesRequestedCount) {
  GosperIterator it(3, 0, 20, 10);
  Seed256 mask;
  int count = 0;
  while (it.next(mask)) {
    EXPECT_EQ(mask.popcount(), 3);
    ++count;
  }
  EXPECT_EQ(count, 20);
  EXPECT_EQ(it.produced(), 20u);
}

TEST(GosperIterator, StartRankOffsetsSequence) {
  // An iterator starting at rank 5 must produce the 6th mask first.
  GosperIterator from_zero(3, 0, 10, 12);
  GosperIterator from_five(3, 5, 1, 12);
  Seed256 mask;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(from_zero.next(mask));
  Seed256 offset_mask;
  ASSERT_TRUE(from_five.next(offset_mask));
  EXPECT_EQ(offset_mask, mask);
}

TEST(GosperIterator, ZeroCountIsEmpty) {
  GosperIterator it(3, 0, 0, 12);
  Seed256 mask;
  EXPECT_FALSE(it.next(mask));
}

class GosperPartition
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GosperPartition, ChunksTileTheFullSequenceDisjointly) {
  const auto [n, k, p] = GetParam();
  GosperFactory factory(n);
  factory.prepare(k, p);
  std::set<std::string> seen;
  u64 produced = 0;
  for (int r = 0; r < p; ++r) {
    auto it = factory.make(r);
    Seed256 mask;
    while (it.next(mask)) {
      EXPECT_EQ(mask.popcount(), k);
      EXPECT_TRUE(seen.insert(mask.to_hex()).second)
          << "duplicate mask from thread " << r;
      ++produced;
    }
  }
  EXPECT_EQ(produced, binomial64(n, k));
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, GosperPartition,
    ::testing::Values(std::tuple{8, 3, 1}, std::tuple{8, 3, 4},
                      std::tuple{10, 4, 7}, std::tuple{12, 2, 5},
                      std::tuple{9, 5, 3}, std::tuple{6, 6, 2},
                      std::tuple{10, 1, 16}));

TEST(GosperPartition, MoreThreadsThanWork) {
  GosperFactory factory(6);
  factory.prepare(1, 10);  // 6 combinations, 10 threads
  u64 produced = 0;
  for (int r = 0; r < 10; ++r) {
    auto it = factory.make(r);
    Seed256 mask;
    while (it.next(mask)) ++produced;
  }
  EXPECT_EQ(produced, 6u);
}

TEST(GosperFactory, FullWidthChunkStartsMatchColexUnrank) {
  GosperFactory factory;
  factory.prepare(5, 64);
  // Thread 17's first mask must be the colex-unranked chunk boundary.
  const u128 total = binomial128(256, 5);
  const u128 lo = total * 17 / 64;
  auto it = factory.make(17);
  Seed256 mask;
  ASSERT_TRUE(it.next(mask));
  EXPECT_EQ(mask, unrank_colexicographic(lo, 5).to_mask());
}

}  // namespace
}  // namespace rbc::comb
