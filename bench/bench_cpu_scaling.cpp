// §4.3: SALTED-CPU strong scaling — "we achieve speedups of 59x and 63x on
// 64xCPU cores using SHA-1 and SHA-3, respectively."
//
// Section 1 projects the scaling curve from the calibrated CPU model
// (PlatformA, 64 cores). Section 2 measures real strong scaling of this
// repo's search engine on the host across its available cores. Section 3
// times the tile scheduler on skewed workloads — a straggler worker and
// matches planted at different positions in shell 2 — and on a uniform d = 3
// ball, as absolute host times. Section 4 times the one-time Chase snapshot
// walks on their own: the searches read plans from the process-wide
// comb::ChasePlanRegistry, so their best-of-3 times exclude that walk, as
// the paper's do (§3.2.1).
#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "combinatorics/chase382.hpp"
#include "common/rng.hpp"
#include "rbc/search.hpp"
#include "sim/cpu_model.hpp"

namespace {

using namespace rbc;

// The shell-2 mask whose rank-0 Chase walk position is `rank`; XOR onto the
// base seed to plant a match exactly there in the search visit order.
Seed256 shell2_mask_at_rank(u64 rank) {
  comb::ChaseFactory factory;
  factory.prepare(2, 1);
  auto it = factory.make(0);
  Seed256 mask;
  for (u64 i = 0; i <= rank; ++i) RBC_CHECK(it.next(mask));
  return mask;
}

// One timed search. The straggler, when enabled, is worker unit 0 sleeping
// ~4 us per hashed seed via the quantum hook — on a single-core host a
// genuinely slow core cannot be provisioned, but a sleeping unit models one
// faithfully: its quanta take longer while the OS runs the other workers.
double run_once(const Seed256& base,
                const hash::Sha1BatchSeedHash::digest_type& target,
                bool early_exit, bool straggler, int max_distance,
                par::WorkerGroup& pool) {
  comb::ChaseFactory factory;  // plans come warm from the registry
  SearchOptions opts;
  opts.max_distance = max_distance;
  opts.num_threads = 4;
  opts.early_exit = early_exit;
  opts.timeout_s = 600.0;
  opts.tile_seeds = 1024;
  if (straggler) {
    opts.quantum_hook = [](int unit, u64 n) {
      if (unit == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(4 * n));
    };
  }
  const hash::Sha1BatchSeedHash hash;
  const auto r = rbc_search<hash::Sha1BatchSeedHash>(base, target, factory,
                                                     pool, opts, hash);
  return r.host_seconds;
}

double best_of(int reps, const Seed256& base,
               const hash::Sha1BatchSeedHash::digest_type& target,
               bool early_exit, bool straggler, int max_distance,
               par::WorkerGroup& pool) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    best = std::min(best, run_once(base, target, early_exit, straggler,
                                   max_distance, pool));
  }
  return best;
}

}  // namespace

int main() {
  using namespace rbc;
  using namespace rbc::bench;
  using hash::HashAlgo;

  print_title("§4.3 — CPU strong scaling (model, PlatformA 64 cores)");

  sim::CpuModel cpu;
  Table model({"threads", "SHA-1 speedup", "SHA-3 speedup"});
  for (int p : {1, 2, 4, 8, 16, 32, 64}) {
    model.add_row({std::to_string(p), fmt(cpu.speedup(HashAlgo::kSha1, p)),
                   fmt(cpu.speedup(HashAlgo::kSha3_256, p))});
  }
  model.print();
  std::printf("Paper: 59x (SHA-1) and 63x (SHA-3) at 64 cores. Model: %.1fx "
              "and %.1fx.\n",
              cpu.speedup(HashAlgo::kSha1, 64),
              cpu.speedup(HashAlgo::kSha3_256, 64));

  print_title("Host measurement — real engine strong scaling (d = 2, SHA-3)");
  const int max_threads = par::WorkerGroup::default_threads();
  Xoshiro256 rng(3);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  const hash::Sha3SeedHash hash;
  const auto target = hash(unrelated);  // full-ball workload

  // `threads` counts the OS threads that search. p = 1 is the single-unit
  // stream scan on the calling thread. For p > 1 the tiled driver runs p + 1
  // units (p tile units plus the plan-pipeline unit, which also hashes);
  // a group of p - 1 workers plus the caller-helps thread runs them on
  // exactly p OS threads.
  Table host({"threads", "tiled units", "host time (s)", "speedup",
              "efficiency"});
  double t1 = 0.0;
  for (int p = 1; p <= max_threads; p *= 2) {
    par::WorkerGroup pool(std::max(1, p - 1));  // idle at p = 1
    comb::ChaseFactory factory;
    SearchOptions opts;
    opts.max_distance = 2;
    opts.num_threads = p;
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const auto r = rbc_search<hash::Sha3SeedHash>(base, target, factory,
                                                    pool, opts, hash);
      best = std::min(best, r.host_seconds);
    }
    if (p == 1) t1 = best;
    host.add_row({std::to_string(p), p == 1 ? "1" : std::to_string(p + 1),
                  fmt(best, 4), fmt(t1 / best, 2), fmt(t1 / best / p, 2)});
  }
  host.print();
  if (max_threads == 1) {
    std::printf("(host has a single hardware thread; scaling is visible only "
                "in the model section)\n");
  }

  // --- Tile scheduler on skewed and uniform workloads ----------------------
  print_title(
      "Skewed workload — straggler worker, tiled (d = 2, SHA-1, 4 workers, "
      "1024-seed tiles, best of 3)");
  std::printf(
      "Worker 0 sleeps ~4 us per hashed seed (a modeled slow core); the\n"
      "other workers steal its share of every shell. Compare each row with\n"
      "the no-straggler row: the gap is what the slow core still costs.\n\n");

  const hash::Sha1BatchSeedHash sha1;
  par::WorkerGroup skew_pool(5);  // 4 workers + tiled pipeline unit

  Table skew({"scenario", "no straggler (s)", "straggler (s)"});
  {
    const auto absent = sha1(unrelated);
    skew.add_row(
        {"exhaustive ball",
         fmt(best_of(3, base, absent, /*early_exit=*/false,
                     /*straggler=*/false, 2, skew_pool),
             4),
         fmt(best_of(3, base, absent, /*early_exit=*/false,
                     /*straggler=*/true, 2, skew_pool),
             4)});
  }

  // Early exit with the match planted early / mid / late in the first
  // quarter of shell 2's visit order (ranks [0, 8160) of 32640).
  const struct {
    const char* label;
    u64 rank;
  } positions[] = {{"match at rank 64", 64},
                   {"match at rank 4096", 4096},
                   {"match at rank 8064", 8064}};
  for (const auto& pos : positions) {
    const Seed256 truth = base ^ shell2_mask_at_rank(pos.rank);
    const auto target2 = sha1(truth);
    skew.add_row(
        {pos.label,
         fmt(best_of(3, base, target2, /*early_exit=*/true,
                     /*straggler=*/false, 2, skew_pool),
             4),
         fmt(best_of(3, base, target2, /*early_exit=*/true,
                     /*straggler=*/true, 2, skew_pool),
             4)});
  }
  skew.print();

  print_title(
      "Uniform workload — tiled d = 3 exhaustive (SHA-1, 4 workers, default "
      "tiles, best of 3)");
  {
    const auto absent = sha1(unrelated);
    double best = 1e30;
    u64 seeds = 0;
    for (int rep = 0; rep < 3; ++rep) {
      comb::ChaseFactory factory;
      SearchOptions opts;
      opts.max_distance = 3;
      opts.num_threads = 4;
      opts.early_exit = false;
      opts.timeout_s = 600.0;
      const auto r = rbc_search<hash::Sha1BatchSeedHash>(
          base, absent, factory, skew_pool, opts, sha1);
      best = std::min(best, r.host_seconds);
      seeds = r.seeds_hashed;
    }
    Table uni({"seeds hashed", "time (s)", "M seeds/s"});
    uni.add_row({std::to_string(seeds), fmt(best, 4),
                 fmt(static_cast<double>(seeds) / best / 1e6, 2)});
    uni.print();
  }

  print_title("One-time Chase snapshot walks (excluded from the times above)");
  {
    Table walks({"shell", "stride", "snapshots", "walk (ms)"});
    // The skewed rows' 1024-seed tiles of shell 2, and shell 3 at the
    // default tile size the uniform row uses.
    const std::pair<int, u64> shells[] = {
        {2, 1024}, {3, comb::ShellTiler::kDefaultTileSeeds}};
    for (const auto& [k, stride] : shells) {
      std::vector<comb::ChaseState> snapshots;
      WallTimer timer;
      comb::make_chase_snapshots_strided(k, stride, snapshots);
      walks.add_row({std::to_string(k), std::to_string(stride),
                     std::to_string(snapshots.size()),
                     fmt(timer.elapsed_s() * 1e3, 2)});
    }
    walks.print();
  }
  return 0;
}
