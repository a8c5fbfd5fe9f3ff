// Message-passing communicator and the distributed RBC search ([36] shape).
#include <gtest/gtest.h>

#include <atomic>

#include "common/rng.hpp"
#include "dist/dist_search.hpp"

namespace rbc::dist {
namespace {

TEST(Communicator, PointToPointDelivery) {
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/7, Bytes{1, 2, 3});
    } else {
      const Packet p = ctx.recv(7);
      EXPECT_EQ(p.source, 0);
      EXPECT_EQ(p.payload, (Bytes{1, 2, 3}));
    }
  });
}

TEST(Communicator, TagsAreIndependentQueues) {
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, Bytes{0xa});
      ctx.send(1, 2, Bytes{0xb});
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(ctx.recv(2).payload, Bytes{0xb});
      EXPECT_EQ(ctx.recv(1).payload, Bytes{0xa});
    }
  });
}

TEST(Communicator, TryRecvDoesNotBlock) {
  Communicator comm(1);
  comm.run([](RankCtx& ctx) {
    Packet p;
    EXPECT_FALSE(ctx.try_recv(5, p));
    ctx.send(0, 5, Bytes{9});
    EXPECT_TRUE(ctx.try_recv(5, p));
    EXPECT_EQ(p.payload, Bytes{9});
  });
}

TEST(Communicator, BarrierSynchronizesAllRanks) {
  Communicator comm(4);
  std::atomic<int> before{0}, after{0};
  comm.run([&](RankCtx& ctx) {
    before++;
    ctx.barrier();
    // After the barrier every rank must observe all 4 arrivals.
    EXPECT_EQ(before.load(), 4);
    after++;
    ctx.barrier();
    EXPECT_EQ(after.load(), 4);
  });
}

TEST(Communicator, PropagatesRankExceptions) {
  Communicator comm(2);
  EXPECT_THROW(comm.run([](RankCtx& ctx) {
    ctx.barrier();  // both ranks proceed together...
    if (ctx.rank() == 1) throw std::runtime_error("rank 1 died");
  }),
               std::runtime_error);
}

TEST(Communicator, ValidatesConfiguration) {
  EXPECT_THROW(Communicator(0), CheckFailure);
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_THROW(ctx.send(5, 0, Bytes{}), CheckFailure);
    }
  });
}

// --- distributed search ----------------------------------------------------------

Seed256 flipped(Seed256 s, std::initializer_list<int> bits) {
  for (int b : bits) s.flip_bit(b);
  return s;
}

SearchOptions ball(int max_distance) {
  SearchOptions opts;
  opts.max_distance = max_distance;
  return opts;
}

class DistSearchRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistSearchRanks, FindsPlantedSeed) {
  const int ranks = GetParam();
  Communicator comm(ranks);
  Xoshiro256 rng(static_cast<u64>(ranks));
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = flipped(base, {5, 190});
  const hash::Sha3SeedHash hash;
  const auto r = distributed_search<hash::Sha3SeedHash>(comm, base,
                                                        hash(truth), ball(2));
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.seed, truth);
  EXPECT_EQ(r.distance, 2);
  EXPECT_GE(r.finder_rank, 0);
  EXPECT_LT(r.finder_rank, ranks);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSearchRanks,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(DistSearch, DistanceZeroFoundByRankZero) {
  Communicator comm(4);
  Xoshiro256 rng(1);
  const Seed256 base = Seed256::random(rng);
  const hash::Sha1SeedHash hash;
  const auto r =
      distributed_search<hash::Sha1SeedHash>(comm, base, hash(base), ball(2));
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 0);
  EXPECT_EQ(r.finder_rank, 0);
}

TEST(DistSearch, ExhaustsBallWhenAbsent) {
  Communicator comm(3);
  Xoshiro256 rng(2);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  const hash::Sha1SeedHash hash;
  const auto r = distributed_search<hash::Sha1SeedHash>(comm, base,
                                                        hash(unrelated),
                                                        ball(2));
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.seeds_hashed, 32897u);
}

TEST(DistSearch, EarlyStopSavesWorkOnLaterShells) {
  // Seed at d=1 with a d<=2 budget: the STOP broadcast must prevent shell 2
  // (32640 candidates) from being fully searched.
  Communicator comm(4);
  Xoshiro256 rng(3);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = flipped(base, {128});
  const hash::Sha1SeedHash hash;
  const auto r =
      distributed_search<hash::Sha1SeedHash>(comm, base, hash(truth), ball(2));
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 1);
  EXPECT_LT(r.seeds_hashed, 2000u);
}

TEST(DistSearch, CommunicatorIsReusableAcrossSearches) {
  Communicator comm(3);
  Xoshiro256 rng(4);
  const hash::Sha1SeedHash hash;
  for (int trial = 0; trial < 3; ++trial) {
    const Seed256 base = Seed256::random(rng);
    const Seed256 truth = flipped(base, {10 + trial});
    const auto r =
        distributed_search<hash::Sha1SeedHash>(comm, base, hash(truth),
                                               ball(1));
    EXPECT_TRUE(r.found) << "trial " << trial;
    EXPECT_EQ(r.seed, truth);
  }
}

TEST(DistSearch, ResultsIndependentOfCheckInterval) {
  Communicator comm(3);
  Xoshiro256 rng(5);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = flipped(base, {33, 77});
  const hash::Sha3SeedHash hash;
  for (u32 interval : {1u, 16u, 256u}) {
    SearchOptions opts = ball(2);
    opts.check_interval = interval;
    const auto r = distributed_search<hash::Sha3SeedHash>(comm, base,
                                                          hash(truth), opts);
    EXPECT_TRUE(r.found) << "check_interval=" << interval;
    EXPECT_EQ(r.seed, truth);
  }
}

TEST(DistSearch, ExhaustiveModeCountsFullBallEvenWithMatch) {
  // early_exit=false: the planted seed is reported, but every chunk of the
  // ball is still granted and searched, so the aggregate count is exact.
  Communicator comm(3);
  Xoshiro256 rng(6);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = flipped(base, {7, 201});
  const hash::Sha1SeedHash hash;
  SearchOptions opts = ball(2);
  opts.early_exit = false;
  const auto r =
      distributed_search<hash::Sha1SeedHash>(comm, base, hash(truth), opts);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.seed, truth);
  EXPECT_EQ(r.distance, 2);
  EXPECT_EQ(r.seeds_hashed, 32897u);
}

TEST(DistSearch, GuidedChunksCoverShellOncePerRankCount) {
  // The guided grants must partition each shell exactly regardless of the
  // rank count: exhaustive counts are the ball size for every topology.
  Xoshiro256 rng(7);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  const hash::Sha1SeedHash hash;
  for (int ranks : {1, 2, 5}) {
    Communicator comm(ranks);
    const auto r = distributed_search<hash::Sha1SeedHash>(
        comm, base, hash(unrelated), ball(2));
    EXPECT_FALSE(r.found) << "ranks=" << ranks;
    EXPECT_EQ(r.seeds_hashed, 32897u) << "ranks=" << ranks;
  }
}

TEST(DistSearch, BatchedAndScalarPoliciesAgree) {
  // Ranks hash their chunks in blocks through the search core's probe, so a
  // batched policy must report exactly what the scalar one does: the same
  // seed and distance, the exact ball when exhaustive, and the same count
  // to the match under early exit (one rank, so the visit order is fixed).
  Xoshiro256 rng(8);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = flipped(base, {19, 230});
  const hash::Sha1SeedHash reference;
  for (bool early_exit : {false, true}) {
    Communicator comm(early_exit ? 1 : 2);
    SearchOptions opts = ball(2);
    opts.early_exit = early_exit;
    const auto scalar = distributed_search<hash::Sha1SeedHash>(
        comm, base, reference(truth), opts);
    const auto batched = distributed_search<hash::Sha1BatchSeedHash>(
        comm, base, reference(truth), opts);
    EXPECT_TRUE(scalar.found) << "early_exit=" << early_exit;
    EXPECT_TRUE(batched.found) << "early_exit=" << early_exit;
    EXPECT_EQ(scalar.seed, truth);
    EXPECT_EQ(batched.seed, scalar.seed);
    EXPECT_EQ(batched.distance, scalar.distance);
    EXPECT_EQ(batched.seeds_hashed, scalar.seeds_hashed)
        << "early_exit=" << early_exit;
    if (!early_exit) {
      EXPECT_EQ(scalar.seeds_hashed, 32897u);
    }
  }
}

}  // namespace
}  // namespace rbc::dist
