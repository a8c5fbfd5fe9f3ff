#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "combinatorics/chase382.hpp"

namespace rbc::comb {
namespace {

std::vector<Seed256> walk_full_sequence(int k, int n) {
  ChaseSequence seq(k, n);
  std::vector<Seed256> out;
  out.push_back(seq.mask());
  while (seq.advance()) out.push_back(seq.mask());
  return out;
}

class ChaseCoverage
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ChaseCoverage, VisitsEverySubsetExactlyOnce) {
  const auto [n, k] = GetParam();
  const auto seq = walk_full_sequence(k, n);
  EXPECT_EQ(seq.size(), binomial64(n, k));
  std::set<std::string> seen;
  for (const auto& mask : seq) {
    EXPECT_EQ(mask.popcount(), k);
    EXPECT_LE(mask.highest_set_bit(), n - 1);
    EXPECT_TRUE(seen.insert(mask.to_hex()).second);
  }
}

TEST_P(ChaseCoverage, ConsecutiveMasksDifferByOneSwap) {
  const auto [n, k] = GetParam();
  const auto seq = walk_full_sequence(k, n);
  for (std::size_t i = 1; i < seq.size(); ++i) {
    // Gray property of Chase's sequence: one element out, one element in.
    EXPECT_EQ(hamming_distance(seq[i - 1], seq[i]), 2)
        << "step " << i << ": " << seq[i - 1].to_hex() << " -> "
        << seq[i].to_hex();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, ChaseCoverage,
    ::testing::Values(std::pair{5, 1}, std::pair{5, 2}, std::pair{6, 3},
                      std::pair{7, 3}, std::pair{8, 4}, std::pair{9, 2},
                      std::pair{10, 5}, std::pair{12, 3}, std::pair{6, 5},
                      std::pair{4, 4}, std::pair{16, 2}));

TEST(ChaseSequence, SingleCombinationSpaces) {
  // k = n: exactly one combination, no transitions.
  ChaseSequence seq(4, 4);
  EXPECT_EQ(seq.mask().popcount(), 4);
  EXPECT_FALSE(seq.advance());
  // k = 0: one (empty) combination.
  ChaseSequence empty(0, 5);
  EXPECT_TRUE(empty.mask().is_zero());
  EXPECT_FALSE(empty.advance());
}

TEST(ChaseSequence, InitialCombinationIsHighestPositions) {
  ChaseSequence seq(3, 8);
  const Seed256 m = seq.mask();
  EXPECT_TRUE(m.bit(5));
  EXPECT_TRUE(m.bit(6));
  EXPECT_TRUE(m.bit(7));
  EXPECT_EQ(m.popcount(), 3);
}

TEST(ChaseSequence, StateRoundTripResumesExactly) {
  ChaseSequence seq(3, 10);
  for (int i = 0; i < 17; ++i) ASSERT_TRUE(seq.advance());
  const ChaseState snapshot = seq.state();
  EXPECT_EQ(snapshot.step_index, 17u);

  // Walk both the original and a resumed copy in lockstep.
  ChaseSequence resumed(snapshot, 10);
  for (int i = 0; i < 50; ++i) {
    const bool a = seq.advance();
    const bool b = resumed.advance();
    ASSERT_EQ(a, b);
    if (!a) break;
    EXPECT_EQ(seq.mask(), resumed.mask());
  }
}

TEST(ChaseSnapshots, TileTheSequence) {
  const int n = 12, k = 4;  // C(12,4) = 495
  const u64 total = binomial64(n, k);
  for (u64 num_states : {1u, 3u, 8u, 33u, 495u, 700u}) {
    // prepare(k, p)'s partition: a snapshot every ceil(total / p) steps.
    const auto plan =
        ChaseFactory(n).plan(k, (total + num_states - 1) / num_states);
    ASSERT_GE(plan->tiles(), 1u);
    EXPECT_LE(plan->tiles(), num_states);
    EXPECT_EQ(plan->snapshot(0).step_index, 0u);
    // Strictly increasing step indices covering [0, total).
    for (u64 t = 1; t < plan->tiles(); ++t)
      EXPECT_GT(plan->snapshot(t).step_index,
                plan->snapshot(t - 1).step_index);
    EXPECT_LT(plan->snapshot(plan->tiles() - 1).step_index, total);
  }
}

TEST(ChaseSnapshots, SnapshotMasksMatchSequentialWalk) {
  const int n = 10, k = 3;
  const auto reference = walk_full_sequence(k, n);
  std::vector<ChaseState> snaps;  // C(10,3) = 120 in 7 slices of 18
  ASSERT_TRUE(make_chase_snapshots_strided(k, 18, snaps, n));
  EXPECT_EQ(snaps.size(), 7u);
  for (const auto& s : snaps) {
    ASSERT_LT(s.step_index, reference.size());
    EXPECT_EQ(s.mask, reference[static_cast<std::size_t>(s.step_index)]);
  }
}

class ChasePartition
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ChasePartition, FactoryChunksTileDisjointly) {
  const auto [n, k, p] = GetParam();
  ChaseFactory factory(n);
  factory.prepare(k, p);
  std::set<std::string> seen;
  for (int r = 0; r < p; ++r) {
    auto it = factory.make(r);
    Seed256 mask;
    while (it.next(mask)) {
      EXPECT_EQ(mask.popcount(), k);
      EXPECT_TRUE(seen.insert(mask.to_hex()).second)
          << "duplicate from thread " << r;
    }
  }
  EXPECT_EQ(seen.size(), binomial64(n, k));
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, ChasePartition,
    ::testing::Values(std::tuple{8, 3, 1}, std::tuple{8, 3, 4},
                      std::tuple{10, 4, 7}, std::tuple{12, 2, 5},
                      std::tuple{9, 5, 3}, std::tuple{10, 1, 16},
                      std::tuple{6, 2, 32}));

TEST(ChaseFactory, CacheReusesSnapshots) {
  ChaseFactory factory(10);
  factory.prepare(3, 4);
  const auto a0 = [&] {
    auto it = factory.make(0);
    Seed256 m;
    RBC_CHECK(it.next(m));
    return m;
  }();
  // prepare() again with the same key must produce identical partitions.
  factory.prepare(3, 4);
  auto it = factory.make(0);
  Seed256 m;
  ASSERT_TRUE(it.next(m));
  EXPECT_EQ(m, a0);
}

TEST(ChaseFactory, MakeWithoutPrepareFails) {
  ChaseFactory factory(10);
  EXPECT_THROW(factory.make(0), rbc::CheckFailure);
}

TEST(ChaseIterator, CountLimitsProduction) {
  ChaseSequence seq(2, 8);
  ChaseIterator it(seq.state(), 5, 8);
  Seed256 mask;
  int produced = 0;
  while (it.next(mask)) ++produced;
  EXPECT_EQ(produced, 5);
}

}  // namespace
}  // namespace rbc::comb
