// The SALTED-GPU search kernel in the paper's §3.2 shape, on the emulator.
//
// One kernel launch processes one Hamming shell (the host drives the loop
// over distances, launching a kernel per shell and checking the unified-
// memory flag in between — exactly the structure §3.2 describes). Each
// thread:
//   1. computes its global id r,
//   2. claims snapshot tiles off a work-stealing TileScheduler (PR 4: the
//      static thread->slice assignment became dynamic, so a thread that
//      drains its share keeps pulling tiles instead of idling at the end of
//      the launch),
//   3. stages each tile's Chase Algorithm-382 snapshot into the block's
//      SHARED MEMORY arena (§3.2.3 optimization) before iterating,
//   4. hashes candidate blocks through the search core's probe (fixed-padding
//      multi-lane SHA kernels + head prefilter) and polls the session at the
//      shared check cadence,
//   5. on a match, atomically publishes the result; the launch raises the
//      unified flag the host checks between launches.
//
// hetero_cosearch() goes one step further: host worker units and one
// emulated device consume tiles of the SAME ball from one shared scheduler,
// so CPU and GPU co-search a single authentication instead of owning
// disjoint phases.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "combinatorics/chase382.hpp"
#include "combinatorics/tiler.hpp"
#include "common/timer.hpp"
#include "gpu/launch.hpp"
#include "hash/traits.hpp"
#include "parallel/tile_scheduler.hpp"
#include "rbc/search.hpp"

namespace rbc::gpu {

/// Result slot in "unified memory", shared by all blocks and the host: the
/// search core's match slot (minimal shell wins).
using FoundSlot = rbc::detail::MatchSlot;

struct ShellLaunchStats {
  u64 threads = 0;
  u64 blocks = 0;
  u64 seeds_hashed = 0;
};

/// Searches one Hamming shell with a single kernel launch.
/// `plan` partitions the shell's Chase sequence into snapshot tiles; the
/// launch spawns plan.tiles() logical threads rounded up to whole blocks, and
/// the tiles are handed out dynamically by a work-stealing scheduler rather
/// than bound one-to-one to threads, so an uneven schedule (or an early
/// straggler block) cannot leave the tail of the shell on one thread.
///
/// `ctx` is the session's context: device threads poll its deadline,
/// cancellation and match flag at the search core's check cadence (the CUDA
/// analogue is the host raising the flag from another stream), so a session
/// budget can stop a kernel mid-shell instead of only between launches. A
/// match raises `flag` for the host's between-launch check; a launch that
/// starts with the flag raised does nothing.
template <hash::SeedHash Hash>
ShellLaunchStats launch_salted_shell(
    par::WorkerGroup& workers, const Seed256& s_init,
    const typename Hash::digest_type& target, int shell,
    const comb::ChaseShellPlan& plan, u32 threads_per_block,
    UnifiedFlag& flag, FoundSlot& slot, par::SearchContext& ctx,
    const Hash& hash = {}) {
  const u64 p = plan.tiles();
  RBC_CHECK(p >= 1);
  const Dim3 grid = grid_for(p, threads_per_block);
  const Dim3 block{threads_per_block, 1, 1};
  ShellLaunchStats stats;
  stats.threads = p;
  stats.blocks = grid.x;
  if (flag.get()) return stats;

  const rbc::SearchOptions opts;  // early exit at the default cadence
  std::atomic<u64> seeds_hashed{0};
  // One shell of p snapshot tiles; every logical thread owns one scheduler
  // slot and starts at its own tile id, so an undisturbed launch visits the
  // same slices as a static thread->slice assignment.
  par::TileScheduler sched(std::vector<u64>{p}, shell, static_cast<int>(p));
  // Shared memory: one ChaseState slot per thread in the block (§3.2.3).
  const std::size_t shared_bytes = sizeof(comb::ChaseState) * threads_per_block;

  launch_kernel(workers, grid, block, shared_bytes, [&](const KernelCtx& kctx) {
    const u64 r = kctx.global_thread_id();
    if (r >= p) return;  // guard threads beyond the last partition

    auto* shared_states =
        reinterpret_cast<comb::ChaseState*>(kctx.shared.data());
    comb::ChaseState& state = shared_states[kctx.threadIdx.x];
    const u64 h = rbc::detail::drain_tiles(
        sched, static_cast<int>(r),
        [&](const par::TileScheduler::Tile& tile) {
          // Stage this tile's iterator state into the block's shared arena,
          // then walk the tile from the staged copy.
          state = plan.snapshot(tile.index);
          return std::optional(
              comb::ChaseIterator(state, plan.tile_count(tile.index)));
        },
        s_init, target, hash, opts, ctx, slot);
    seeds_hashed.fetch_add(h, std::memory_order_relaxed);
  });

  if (slot.found) flag.set();  // unified-memory early exit (§3.2)
  stats.seeds_hashed = seeds_hashed.load();
  return stats;
}

/// Host-side driver (§3.2: "the loop on line 9 is executed on the host,
/// where a kernel is launched to process a single Hamming distance").
/// `threads_for_shell(k)` decides the partition width p per shell, mirroring
/// the n = seeds/p tuning of §4.4.
template <hash::SeedHash Hash>
rbc::SearchResult gpu_emulated_search(
    par::WorkerGroup& workers, const Seed256& s_init,
    const typename Hash::digest_type& target, int max_distance,
    const std::function<int(int)>& threads_for_shell, u32 threads_per_block,
    const Hash& hash = {}, double timeout_s = 1e30,
    par::SearchContext* session = nullptr) {
  rbc::SearchResult result;
  WallTimer timer;
  par::SearchContext local = par::SearchContext::with_budget(timeout_s);
  par::SearchContext& ctx = session != nullptr ? *session : local;
  UnifiedFlag flag;
  FoundSlot slot;

  result.seeds_hashed = 1;
  ctx.add_progress(1);
  if (hash(s_init) == target) {
    result.found = true;
    result.seed = s_init;
    result.distance = 0;
    result.host_seconds = timer.elapsed_s();
    return result;
  }

  for (int k = 1; k <= max_distance; ++k) {
    if (flag.get()) break;  // host checks the unified flag between launches
    // The host enforces the deadline between kernel launches; within one,
    // the kernel threads poll the context themselves (above).
    if (ctx.check_deadline()) break;
    const auto p = static_cast<u64>(std::max(1, threads_for_shell(k)));
    const auto total = static_cast<u64>(comb::binomial128(comb::kSeedBits, k));
    // p snapshot tiles at stride ceil(total / p), from the process-wide
    // registry; a deadline that cuts its walk short ends the search.
    const auto plan = comb::ChasePlanRegistry::get(
        k, (total + p - 1) / p, comb::kSeedBits,
        [&ctx] { return ctx.check_deadline(); });
    if (plan == nullptr) break;
    const auto stats = launch_salted_shell<Hash>(
        workers, s_init, target, k, *plan, threads_per_block, flag, slot, ctx,
        hash);
    result.seeds_hashed += stats.seeds_hashed;
  }

  if (slot.found) {
    result.found = true;
    result.seed = slot.seed;
    result.distance = slot.distance;
  } else {
    ctx.check_deadline();
    result.timed_out = ctx.timed_out();
    result.cancelled = ctx.cancel_requested() && !ctx.timed_out();
  }
  result.host_seconds = timer.elapsed_s();
  return result;
}

/// Heterogeneous CPU+GPU co-search: `host_units` host worker units and one
/// emulated device (device_threads logical threads) drain tiles of the SAME
/// Hamming ball from one shared work-stealing scheduler. Shell plans are the
/// tiled ChaseFactory plans the host engine uses, so every tile is exactly a
/// slice of the rank-0 Chase walk and results are byte-identical to a
/// CPU-only tiled search over the same ball: same found/seed/distance, and
/// in exhaustive mode the same seeds_hashed (the full ball).
///
/// Device threads stage each claimed tile's snapshot into their block's
/// shared-memory arena (§3.2.3) before iterating, exactly like the per-shell
/// kernel above; host units construct tile iterators directly. Both run
/// rbc::detail::drain_tiles, so a match on either side stops the other
/// through the session context.
///
/// `device_seeds_out`, when non-null, receives the device's share of the
/// hashed seeds (for load-split reporting in benches).
template <hash::SeedHash Hash>
rbc::SearchResult hetero_cosearch(
    par::WorkerGroup& workers, const Seed256& s_init,
    const typename Hash::digest_type& target, const rbc::SearchOptions& opts,
    int host_units, int device_threads, u32 threads_per_block,
    const Hash& hash = {}, par::SearchContext* session = nullptr,
    u64* device_seeds_out = nullptr) {
  RBC_CHECK(opts.max_distance >= 0 && opts.max_distance <= comb::kMaxK);
  RBC_CHECK(host_units >= 1);
  RBC_CHECK(device_threads >= 1);

  rbc::SearchResult result;
  WallTimer timer;
  par::SearchContext local = par::SearchContext::with_budget(opts.timeout_s);
  par::SearchContext& ctx = session != nullptr ? *session : local;
  FoundSlot slot;
  if (device_seeds_out != nullptr) *device_seeds_out = 0;

  // Lines 4-8: distance 0 on the host.
  result.seeds_hashed = 1;
  ctx.add_progress(1);
  if (hash(s_init) == target) {
    result.found = true;
    result.seed = s_init;
    result.distance = 0;
    result.host_seconds = timer.elapsed_s();
    return result;
  }

  const int d = opts.max_distance;
  if (d >= 1) {
    const u64 tile_seeds = opts.tile_seeds != 0
                               ? opts.tile_seeds
                               : comb::ShellTiler::kDefaultTileSeeds;
    comb::ShellTiler tiler(d, tile_seeds);
    comb::ChaseFactory factory;
    const std::function<bool()> abort_pred = [&ctx, &opts] {
      return ctx.check_deadline() || ctx.should_stop(opts.early_exit);
    };

    // Plans for every shell up front, from the process-wide registry (each
    // is walked on first use only; the session can still stop a walk).
    std::vector<std::shared_ptr<const comb::ChaseShellPlan>> plans(
        static_cast<std::size_t>(d) + 1);
    bool prepared = true;
    for (int k = 1; k <= d && prepared; ++k) {
      plans[static_cast<std::size_t>(k)] =
          factory.plan(k, tiler.stride(k), abort_pred);
      prepared = plans[static_cast<std::size_t>(k)] != nullptr;
    }

    if (prepared) {
      par::TileScheduler sched(tiler.tiles_per_shell(), /*first_shell=*/1,
                               host_units + device_threads);
      std::atomic<u64> hashed{0};
      std::atomic<u64> device_hashed{0};

      // Host units and device threads run the search core's tile driver;
      // they differ only in how a claimed tile becomes an iterator.
      workers.parallel_workers(host_units + 1, [&](int unit) {
        if (unit < host_units) {
          const u64 h = rbc::detail::drain_tiles(
              sched, unit,
              [&](const par::TileScheduler::Tile& tile) {
                return std::optional(
                    plans[static_cast<std::size_t>(tile.shell)]->make_tile(
                        tile.index));
              },
              s_init, target, hash, opts, ctx, slot);
          hashed.fetch_add(h, std::memory_order_relaxed);
          return;
        }
        // The last unit drives the device: one grid over device_threads
        // logical threads, nested on the same worker group.
        const Dim3 grid = grid_for(static_cast<u64>(device_threads),
                                   threads_per_block);
        const Dim3 block{threads_per_block, 1, 1};
        const std::size_t shared_bytes =
            sizeof(comb::ChaseState) * threads_per_block;
        launch_kernel(
            workers, grid, block, shared_bytes, [&](const KernelCtx& kctx) {
              const u64 t = kctx.global_thread_id();
              if (t >= static_cast<u64>(device_threads)) return;
              auto* shared_states =
                  reinterpret_cast<comb::ChaseState*>(kctx.shared.data());
              comb::ChaseState& state = shared_states[kctx.threadIdx.x];
              const u64 h = rbc::detail::drain_tiles(
                  sched, host_units + static_cast<int>(t),
                  [&](const par::TileScheduler::Tile& tile) {
                    const auto& plan =
                        plans[static_cast<std::size_t>(tile.shell)];
                    // Stage the snapshot into shared memory (§3.2.3), then
                    // resume the walk from the staged copy.
                    state = plan->snapshot(tile.index);
                    return std::optional(comb::ChaseIterator(
                        state, plan->tile_count(tile.index)));
                  },
                  s_init, target, hash, opts, ctx, slot);
              hashed.fetch_add(h, std::memory_order_relaxed);
              device_hashed.fetch_add(h, std::memory_order_relaxed);
            });
      });

      result.seeds_hashed += hashed.load();
      if (device_seeds_out != nullptr) *device_seeds_out = device_hashed.load();

      if (!ctx.cancel_requested() && !(opts.early_exit && slot.found)) {
        RBC_CHECK_MSG(sched.completed_through() == d,
                      "hetero co-search left a shell incomplete");
      }
    }
  }

  if (slot.found) {
    result.found = true;
    result.seed = slot.seed;
    result.distance = slot.distance;
  } else {
    ctx.check_deadline();
    result.timed_out = ctx.timed_out();
    result.cancelled = ctx.cancel_requested() && !ctx.timed_out();
  }
  result.host_seconds = timer.elapsed_s();
  return result;
}

}  // namespace rbc::gpu
