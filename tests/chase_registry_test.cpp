// The process-wide Chase plan registry: each (n_bits, k, stride) key is
// walked once per process, however many searches and sessions ask for it,
// and a walk its builder aborts neither poisons the key nor fails the
// callers waiting on it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "combinatorics/chase382.hpp"
#include "common/rng.hpp"
#include "hash/batch.hpp"
#include "rbc/candidate_stream.hpp"
#include "rbc/search.hpp"

namespace rbc {
namespace {

using comb::ChaseFactory;
using comb::ChasePlanRegistry;
using hash::Sha1BatchSeedHash;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// The shell-k mask at position `rank` of the rank-0 Chase walk over n bits.
Seed256 chase_mask_at(int n_bits, int k, u64 rank) {
  ChaseFactory factory(n_bits);
  factory.prepare(k, 1);
  auto it = factory.make(0);
  Seed256 mask;
  for (u64 i = 0; i <= rank; ++i) RBC_CHECK(it.next(mask));
  return mask;
}

SearchResult search(const Seed256& s_init,
                    const Sha1BatchSeedHash::digest_type& target, int n_bits,
                    int d, int units, u64 tile_seeds, bool early_exit,
                    par::WorkerGroup& pool,
                    std::function<void(int, u64)> hook = {}) {
  ChaseFactory factory(n_bits);  // fresh per search: plans are process-wide
  SearchOptions opts;
  opts.max_distance = d;
  opts.num_threads = units;
  opts.tile_seeds = tile_seeds;
  opts.early_exit = early_exit;
  opts.timeout_s = 600.0;
  opts.quantum_hook = std::move(hook);
  return rbc_search<Sha1BatchSeedHash>(s_init, target, factory, pool, opts);
}

TEST(ChasePlanRegistry, KeyWalkedOncePerProcess) {
  // Ten exhaustive d = 2 searches over 256 bits — six one after another,
  // then four at once — on both drivers. The tile stride 2053 is used by no
  // other test, so the tiled keys start cold in this process.
  constexpr u64 kTile = 2053;
  Xoshiro256 rng(0x5e55);
  const Seed256 s_init = Seed256::random(rng);
  const auto absent = Sha1BatchSeedHash{}(Seed256::random(rng));
  const u64 ball = static_cast<u64>(ball_candidates(2));
  par::WorkerGroup pool(4);

  for (int i = 0; i < 6; ++i) {
    for (int units : {1, 3}) {
      const auto r = search(s_init, absent, 256, 2, units, kTile, false, pool);
      EXPECT_FALSE(r.found);
      EXPECT_EQ(r.seeds_hashed, ball);
    }
  }
  std::vector<std::thread> sessions;
  std::atomic<int> wrong{0};
  for (int i = 0; i < 4; ++i) {
    sessions.emplace_back([&, units = 1 + 2 * (i % 2)] {
      const auto r = search(s_init, absent, 256, 2, units, kTile, false, pool);
      if (r.found || r.seeds_hashed != ball) wrong.fetch_add(1);
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(wrong.load(), 0);

  for (int k = 1; k <= 2; ++k) {
    // Tiled driver: snapshots every kTile steps.
    EXPECT_EQ(ChasePlanRegistry::walks(k, kTile).started, 1u) << "k=" << k;
    // Stream driver: prepare(k, 1) reads the one-tile plan.
    const auto whole = static_cast<u64>(comb::binomial128(256, k));
    EXPECT_EQ(ChasePlanRegistry::walks(k, whole).started, 1u) << "k=" << k;
  }
  // A later fetch is the cached plan itself, with no further walk.
  const auto a = ChasePlanRegistry::get(2, kTile);
  const auto b = ChaseFactory().plan(2, kTile);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(ChasePlanRegistry::walks(2, kTile).started, 1u);
}

TEST(ChasePlanRegistry, AbortedWalkDoesNotPoisonKeyOrFailWaiters) {
  constexpr int kBits = 40, kShell = 3;
  constexpr u64 kStride = 97;
  const auto walks = [] {
    return ChasePlanRegistry::walks(kShell, kStride, kBits);
  };

  // The builder's predicate lets its walk start, holds it at the first
  // in-walk poll until released, then aborts it.
  std::atomic<bool> release{false};
  std::shared_ptr<const comb::ChaseShellPlan> built;
  std::thread builder([&] {
    built = ChasePlanRegistry::get(kShell, kStride, kBits, [&] {
      if (walks().started == 0) return false;  // the pre-walk poll
      while (!release.load()) sleep_ms(1);
      return true;
    });
  });
  while (walks().started == 0) sleep_ms(1);

  // A waiter whose own session has stopped gives up without walking.
  const auto stopped = [] { return true; };
  EXPECT_EQ(ChasePlanRegistry::get(kShell, kStride, kBits, stopped), nullptr);

  // Seven waiters with live sessions queue behind the stalled walk.
  std::vector<std::shared_ptr<const comb::ChaseShellPlan>> got(7);
  std::vector<std::thread> waiters;
  for (std::size_t i = 0; i < got.size(); ++i) {
    waiters.emplace_back([&, i] {
      got[i] = ChasePlanRegistry::get(kShell, kStride, kBits, [] {
        return false;
      });
    });
  }
  sleep_ms(20);
  release.store(true);
  builder.join();
  for (auto& t : waiters) t.join();

  EXPECT_EQ(built, nullptr);
  for (const auto& plan : got) {
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan.get(), got[0].get());
  }
  EXPECT_EQ(walks().started, 2u);
  EXPECT_EQ(walks().aborted, 1u);

  // The completed plan is the plain 1-slice walk cut at every stride.
  ChaseFactory full(kBits);
  full.prepare(kShell, 1);
  auto reference = full.make(0);
  const auto& plan = *got[0];
  EXPECT_EQ(plan.total(), comb::binomial64(kBits, kShell));
  for (u64 t = 0; t < plan.tiles(); ++t) {
    auto tile = plan.make_tile(t);
    Seed256 a, b;
    while (tile.next(a)) {
      ASSERT_TRUE(reference.next(b));
      ASSERT_EQ(a, b) << "tile " << t;
    }
  }
  Seed256 extra;
  EXPECT_FALSE(reference.next(extra));
}

TEST(ChasePlanRegistry, ColdKeyRaceWithEarlyExitBuilder) {
  // Eight concurrent tiled d = 3 searches over 128 bits on a cold shell-3
  // key (stride 1031 is used by no other test). Search 0 plants a match in
  // shell 2 and exits early; its pipeline unit starts the shell-3 walk, and
  // its hashing units are held after their first tile until the seven
  // exhaustive searches have started, so the match usually lands mid-walk
  // and aborts it. Whatever the interleaving, every verdict and
  // exhaustive count is the single-process answer, and the key is walked at
  // most twice with exactly one completed walk.
  constexpr int kBits = 128, kD = 3;
  constexpr u64 kTile = 1031;
  Xoshiro256 rng(0xc01d);
  const Seed256 s_init = Seed256::random(rng);
  const Sha1BatchSeedHash sha1;
  const Seed256 planted = s_init ^ chase_mask_at(kBits, 2, 5000);
  const auto absent = sha1(Seed256::random(rng));
  const u64 ball = static_cast<u64>(ball_candidates(kD, kBits));
  par::WorkerGroup pool(4);

  std::atomic<bool> release{false};
  SearchResult early;
  std::thread first([&] {
    early = search(s_init, sha1(planted), kBits, kD, 2, kTile, true, pool,
                   [&](int, u64) {
                     while (!release.load()) std::this_thread::yield();
                   });
  });
  while (ChasePlanRegistry::walks(kD, kTile, kBits).started == 0)
    std::this_thread::yield();

  std::vector<SearchResult> exhaustive(7);
  std::vector<std::thread> rest;
  for (std::size_t i = 0; i < exhaustive.size(); ++i) {
    rest.emplace_back([&, i] {
      exhaustive[i] =
          search(s_init, absent, kBits, kD, 2, kTile, false, pool);
    });
  }
  release.store(true);
  first.join();
  for (auto& t : rest) t.join();

  EXPECT_TRUE(early.found);
  EXPECT_EQ(early.distance, 2);
  EXPECT_EQ(early.seed, planted);
  for (const auto& r : exhaustive) {
    EXPECT_FALSE(r.found);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.seeds_hashed, ball);
  }
  const auto w = ChasePlanRegistry::walks(kD, kTile, kBits);
  EXPECT_LE(w.started, 2u);
  EXPECT_EQ(w.started - w.aborted, 1u);
  RecordProperty("shell3_walks", static_cast<int>(w.started));
}

}  // namespace
}  // namespace rbc
