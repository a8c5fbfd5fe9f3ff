// CandidateStream contract suites.
//
// rbc_search's single-unit scan drives a resumable CandidateStream, and the
// per-session visit order — hence verdicts and `seeds_hashed` — depends on
// every stream implementation emitting the same canonical sequence: S_init
// first, then shells 1..d, with no fill crossing a shell boundary.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "combinatorics/chase382.hpp"
#include "common/rng.hpp"
#include "rbc/candidate_stream.hpp"

namespace rbc {
namespace {

constexpr u64 kBallD2 = 1 + 256 + 32640;  // |ball(d<=2)| over 256 bits

Seed256 random_seed(u64 salt) {
  Xoshiro256 rng(salt);
  return Seed256::random(rng);
}

TEST(CandidateStream, TableStreamReproducesBallStreamOrder) {
  // The cached-table stream must emit the byte-identical candidate sequence
  // the factory-walking stream emits, regardless of the fill granularity —
  // resumability cannot perturb the enumeration order.
  const Seed256 s_init = random_seed(0xF051);
  comb::ChaseFactory factory;
  BallStream<comb::ChaseFactory> reference(s_init, 2, factory);
  TableCandidateStream table(s_init, 2, sim::IterAlgo::kChase382);

  std::vector<Seed256> want;
  std::array<Seed256, 64> buf;
  while (std::size_t n = reference.fill(buf.data(), buf.size()))
    want.insert(want.end(), buf.begin(), buf.begin() + n);
  ASSERT_EQ(want.size(), kBallD2);

  std::vector<Seed256> got;
  std::size_t ask = 1;  // ragged asks: 1, 2, 3, ... wraps shell boundaries
  while (std::size_t n = table.fill(buf.data(), (ask % 63) + 1)) {
    got.insert(got.end(), buf.begin(), buf.begin() + n);
    ++ask;
  }
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(table.exhausted());
  EXPECT_EQ(table.position(), kBallD2);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "candidate " << i;
}

TEST(CandidateStream, FillsNeverCrossShellBoundaries) {
  const Seed256 s_init = random_seed(0xF052);
  TableCandidateStream stream(s_init, 2, sim::IterAlgo::kChase382);
  std::array<Seed256, 48> buf;

  // First fill emits exactly the d0 candidate.
  ASSERT_EQ(stream.fill(buf.data(), buf.size()), 1u);
  EXPECT_EQ(stream.last_shell(), 0);
  EXPECT_EQ(buf[0], s_init);

  u64 per_shell[3] = {1, 0, 0};
  int prev_shell = 0;
  while (std::size_t n = stream.fill(buf.data(), buf.size())) {
    const int shell = stream.last_shell();
    ASSERT_GE(shell, prev_shell) << "shells must be visited in order";
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ((buf[i] ^ s_init).popcount(), shell)
          << "fill mixed candidates from different shells";
    per_shell[shell] += n;
    prev_shell = shell;
  }
  EXPECT_EQ(per_shell[1], 256u);
  EXPECT_EQ(per_shell[2], 32640u);
}

// ---------------------------------------------------------------------------
// Tagged batch kernel

}  // namespace
}  // namespace rbc
