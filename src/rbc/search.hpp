// The RBC-SALTED search core — Algorithm 1 of the paper.
//
// Given the enrolled seed S_init and the client's message digest M1, search
// the Hamming ball around S_init shell by shell: work units XOR each shell
// mask into S_init, hash, and compare against M1. The first match signals
// the session's SearchContext (lines 7/15); the context's deadline bounds
// the whole search (§3: "RBC uses a time threshold for which it must
// authenticate a client").
//
// One probe, two drivers (see docs/scheduler.md):
//
//   * detail::Probe — the fused iterate-and-hash step (§4.5): a filled
//     candidate block goes through one multi-lane hash call, non-matches are
//     rejected on the digest's first 32 bits, survivors get the full
//     compare, and the first matching lane comes back. Every backend —
//     host search, emulated GPU kernel, CPU+GPU co-search, distributed
//     ranks — hashes through it.
//   * detail::scan_stream — one unit over a resumable CandidateStream. This
//     is the single-thread search (canonical or reliability order) and the
//     reference visit order the tiled driver is held to.
//   * detail::drain_tiles — one unit claiming tiles off a work-stealing
//     par::TileScheduler. rbc_search with num_threads > 1 runs num_threads
//     of these plus a pipeline unit that publishes shell k+1's plan while
//     shell k drains; the GPU kernel and the co-search run the same loop.
//     Exhaustive mode records the MINIMAL shell containing a match (shells
//     overlap in flight), and per-tile accounting keeps `seeds_hashed`
//     visit-order exact.
//
// Both drivers share one stop cadence (check_interval seeds, rounded up to
// whole blocks) and one match rule: the lanes after a match are
// speculative, so under early exit the count stops at the matching lane.
//
// Concurrency: tiled rounds run on a WorkerGroup, so any number of sessions
// can search at once over one set of worker threads. All stop conditions
// flow through the SearchContext:
//   * match found   — stops the search under the early-exit policy only;
//   * cancellation  — deadline expiry or an external cancel(); honored
//                     UNCONDITIONALLY, including in exhaustive mode.
//
// The templates are monomorphized over the hash policy and the seed iterator
// so the hot loop compiles to straight-line code — the same reason the paper
// fuses seed iteration and hashing into one GPU kernel (§4.5). Scalar hash
// policies run the same loop with a block of one, so results and accounting
// are identical across policies.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "bits/seed256.hpp"
#include "combinatorics/shell.hpp"
#include "combinatorics/tiler.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "hash/batch.hpp"
#include "hash/traits.hpp"
#include "obs/trace.hpp"
#include "parallel/early_exit.hpp"
#include "parallel/search_context.hpp"
#include "parallel/tile_scheduler.hpp"
#include "parallel/worker_group.hpp"
#include "rbc/candidate_stream.hpp"

namespace rbc {

/// Within-shell candidate order. kCanonical is the iterator family's
/// combinatorial order — the historical behavior, byte-for-byte. kReliability
/// re-orders each shell by descending posterior likelihood using the
/// device's enrollment-time reliability profile (candidate_stream.hpp's
/// OrderedBallStream); it requires SearchOptions::reliability and falls back
/// to canonical when no profile is available.
enum class SearchOrder : u8 { kCanonical = 0, kReliability = 1 };

struct SearchOptions {
  /// Maximum Hamming distance d to search (inclusive).
  int max_distance = 3;
  /// Work units (p in Algorithm 1). 1 scans the ball on the calling thread;
  /// more run the tiled driver, whose units multiplex onto the worker group
  /// (so this may exceed the group's thread count) plus one pipeline unit.
  int num_threads = 1;
  /// Seeds iterated between stop-condition checks (§4.4 knob): both the
  /// early-exit flag and the deadline are consulted at this cadence, rounded
  /// up to whole hash batches. §4.4 found intervals 1..64 indistinguishable;
  /// 256 keeps the clock read and flag poll far off the per-seed fast path
  /// while still bounding stop latency to microseconds.
  u32 check_interval = 256;
  /// When false, the search visits every seed up to d even after a match —
  /// the "exhaustive" timing scenario of the evaluation. Cancellation and
  /// deadlines still apply.
  bool early_exit = true;
  /// Authentication time threshold T, seconds of host wall clock. Used to
  /// build a local SearchContext when the caller does not provide one; a
  /// caller-provided session context carries its own deadline instead.
  double timeout_s = 20.0;
  /// Candidate seeds per scheduler tile for multi-unit searches; 0 picks
  /// comb::ShellTiler::kDefaultTileSeeds.
  u64 tile_seeds = 0;
  /// Bench/test instrumentation: when set, each work unit calls
  /// hook(unit, seeds) after every scheduling quantum — a tile for the tiled
  /// driver, a check-interval batch for a stream scan — with the seeds it
  /// just hashed. The skewed-workload bench injects a sleeping straggler
  /// through this. Leave empty in production; it runs on the hot path.
  std::function<void(int unit, u64 seeds)> quantum_hook;
  /// Within-shell candidate order. kReliability is honored only when
  /// `reliability` is set; the ordered walk is inherently sequential, so it
  /// runs single-unit regardless of num_threads.
  SearchOrder order = SearchOrder::kCanonical;
  /// Per-bit reliability order for kReliability, built from the device's
  /// enrollment profile. Shared with the session that fetched the record.
  std::shared_ptr<const comb::ReliabilityOrder> reliability;
  /// Likelihood-ordered head size per shell (masks). Shells no larger than
  /// this are fully likelihood-ordered; bigger shells emit this many
  /// most-likely masks first, then fall back to a canonical tail that skips
  /// them (see OrderedBallStream). Bounds the enumerator frontier memory.
  u64 ordered_budget = OrderedBallStream::kDefaultOrderedBudget;
};

struct SearchResult {
  bool found = false;
  Seed256 seed;              // the matching candidate, when found
  int distance = -1;         // shell where the match occurred
  u64 seeds_hashed = 0;      // total candidates hashed across threads
  double host_seconds = 0.0; // wall-clock duration of the search
  bool timed_out = false;    // deadline hit before the ball was exhausted
  bool cancelled = false;    // externally cancelled before completion
  /// 1-based position the match would have held in the canonical ball order
  /// (S_init = 1, then shells in colex order). Only set when found; lets the
  /// server report how much the reliability order saved — under kCanonical
  /// with early exit it simply equals seeds_hashed.
  u64 canonical_rank = 0;
};

namespace detail {

/// The probe: hashes a filled block `candidates[0, n)` (n at most
/// hash::seed_hash_batch<Hash>()) in one multi-lane call, rejects lanes on
/// the digest's first 32 bits, confirms survivors with the full compare, and
/// returns the first matching lane — or n when no lane matches. One per work
/// unit: it holds the target's head and the digest scratch block.
template <hash::SeedHash Hash>
class Probe {
 public:
  using digest_type = typename Hash::digest_type;

  Probe(const Hash& hash, const digest_type& target) noexcept
      : hash_(hash), target_(target) {
    std::memcpy(&target_head_, target.bytes.data(), sizeof(target_head_));
  }

  std::size_t operator()(const Seed256* candidates, std::size_t n) noexcept {
    hash::hash_seed_block(hash_, candidates, n, digests_.data());
    for (std::size_t i = 0; i < n; ++i) {
      u32 head;
      std::memcpy(&head, digests_[i].bytes.data(), sizeof(head));
      if (head == target_head_ && digests_[i] == target_) return i;
    }
    return n;
  }

 private:
  const Hash& hash_;
  const digest_type& target_;
  u32 target_head_ = 0;
  std::array<digest_type, hash::seed_hash_batch<Hash>()> digests_;
};

/// The shared stop cadence: check_interval seeds expressed in whole blocks,
/// so a batch is never split by a poll.
template <hash::SeedHash Hash>
u32 blocks_per_check(const SearchOptions& opts) noexcept {
  constexpr u64 kBlock = hash::seed_hash_batch<Hash>();
  return static_cast<u32>((std::max<u64>(opts.check_interval, 1) + kBlock - 1) /
                          kBlock);
}

/// Where concurrent units record a match. Shells overlap in flight under
/// tiling, so the MINIMAL shell wins and exhaustive mode still reports the
/// true distance.
struct MatchSlot {
  std::mutex mutex;
  bool found = false;
  Seed256 seed;
  int distance = -1;

  void offer(const Seed256& candidate, int shell) {
    std::lock_guard lock(mutex);
    if (!found || shell < distance) {
      found = true;
      seed = candidate;
      distance = shell;
    }
  }
};

/// Tile driver: work unit `unit` claims tiles off `sched` until it runs dry
/// or a stop condition fires, turning each tile into an iterator with
/// `make_iter(tile)` (nullopt ends the unit — e.g. a plan walk the deadline
/// aborted) and draining it block by block through probe(). Fully visited
/// tiles feed the scheduler's completion watermark. Publishes its count to
/// the context and returns it.
template <hash::SeedHash Hash, typename MakeIter>
u64 drain_tiles(par::TileScheduler& sched, int unit, MakeIter&& make_iter,
                const Seed256& s_init,
                const typename Hash::digest_type& target, const Hash& hash,
                const SearchOptions& opts, par::SearchContext& ctx,
                MatchSlot& slot) {
  constexpr std::size_t kBlock = hash::seed_hash_batch<Hash>();
  std::array<Seed256, kBlock> candidates;
  Probe probe(hash, target);
  const u32 check_blocks = blocks_per_check<Hash>(opts);
  const auto stop = [&] {
    return ctx.check_deadline() || ctx.should_stop(opts.early_exit);
  };

  u64 unit_hashed = 0;
  par::TileScheduler::Tile tile;
  while (!stop() && sched.acquire(unit, tile)) {
    auto it = make_iter(tile);
    if (!it.has_value()) break;
    par::CheckThrottle throttle(check_blocks);
    u64 tile_hashed = 0;
    bool tile_done = true;  // fully visited (completes the watermark)
    while (true) {
      if (throttle.due() && stop()) {
        tile_done = false;
        break;
      }
      std::size_t n = 0;
      Seed256 mask;
      while (n < kBlock && it->next(mask)) candidates[n++] = s_init ^ mask;
      if (n == 0) break;  // tile exhausted
      const std::size_t hit = probe(candidates.data(), n);
      if (hit != n) {
        slot.offer(candidates[hit], tile.shell);
        ctx.signal_match();  // line 15: NotifyAllThreadsToExitSearch
        if (opts.early_exit) {
          tile_hashed += hit + 1;  // lanes past the match were speculative
          tile_done = false;
          break;
        }
      }
      tile_hashed += n;
    }
    unit_hashed += tile_hashed;
    if (tile_done) sched.complete(tile);
    if (opts.quantum_hook) opts.quantum_hook(unit, tile_hashed);
  }
  ctx.add_progress(unit_hashed);
  return unit_hashed;
}

/// Multi-unit search over a tiled factory. Assumes distance 0 was already
/// checked and missed; returns the seeds hashed beyond it.
template <hash::SeedHash Hash, comb::TiledSeedIteratorFactory Factory>
u64 rbc_search_tiled(const Seed256& s_init,
                     const typename Hash::digest_type& target,
                     Factory& factory, par::WorkerGroup& workers,
                     const SearchOptions& opts, const Hash& hash,
                     par::SearchContext& ctx, MatchSlot& slot) {
  const int d = opts.max_distance;
  if (d == 0) return 0;

  const u64 tile_seeds = opts.tile_seeds != 0
                             ? opts.tile_seeds
                             : comb::ShellTiler::kDefaultTileSeeds;
  comb::ShellTiler tiler(d, tile_seeds, factory.n_bits());
  // +1: a pipeline unit that publishes upcoming shell plans ahead of the
  // hashing front, then joins the tile loop as one more worker.
  const int units = opts.num_threads + 1;
  par::TileScheduler sched(tiler.tiles_per_shell(), /*first_shell=*/1, units);

  // Shell plans come from the factory; Chase's are walked once per process
  // in comb::ChasePlanRegistry, which also makes concurrent askers of a
  // missing plan wait for its one walk. The predicate stops this search's
  // walk or wait: a nullptr plan ends the unit.
  const std::function<bool()> abort_pred = [&ctx, &opts] {
    return ctx.check_deadline() || ctx.should_stop(opts.early_exit);
  };

  std::atomic<u64> hashed{0};
  workers.parallel_workers(units, [&](int unit) {
    // This unit's handles on the plans, fetched once per shell.
    std::vector<std::shared_ptr<const typename Factory::shell_plan>> plans(
        static_cast<std::size_t>(d) + 1);
    const auto plan_for = [&](int k) {
      auto& plan = plans[static_cast<std::size_t>(k)];
      if (plan == nullptr) plan = factory.plan(k, tiler.stride(k), abort_pred);
      return plan.get();
    };
    if (unit == units - 1) {
      // Pipeline unit: fetch plans front to back (on a cold registry, this
      // walks shell k+1 while the others drain shell k), then hash like
      // everyone else.
      for (int k = 1; k <= d; ++k)
        if (plan_for(k) == nullptr) break;
    }
    const u64 h = drain_tiles(
        sched, unit,
        [&](const par::TileScheduler::Tile& tile)
            -> std::optional<typename Factory::iterator> {
          const auto* plan = plan_for(tile.shell);
          if (plan == nullptr) return std::nullopt;
          return plan->make_tile(tile.index);
        },
        s_init, target, hash, opts, ctx, slot);
    hashed.fetch_add(h, std::memory_order_relaxed);
  });
  ctx.check_deadline();

  // Structural invariant: an undisturbed run must have completed every
  // shell — the watermark is what certifies full-ball coverage now that no
  // barrier does.
  if (!ctx.cancel_requested() && !(opts.early_exit && slot.found)) {
    RBC_CHECK_MSG(sched.completed_through() == d,
                  "tiled schedule left a shell incomplete");
  }
  return hashed.load();
}

/// Stream driver: one unit over a CandidateStream, block refill -> probe ->
/// visit-order counting. The stream yields S_init first, then shells 1..d in
/// its order, and the count stops at the match exactly like the tile loop's
/// `hit + 1` — this single-unit scan is the reference the tiled driver is
/// held to (ScheduleEquivalence).
///
/// Stop conditions: the deadline/early-exit poll fires at the check-interval
/// cadence AND whenever a refill crosses into a new shell; candidates
/// fetched but not yet hashed when a stop fires are discarded uncounted.
/// Returns the seeds hashed.
template <hash::SeedHash Hash>
u64 scan_stream(CandidateStream& stream,
                const typename Hash::digest_type& target, const Hash& hash,
                const SearchOptions& opts, par::SearchContext& ctx,
                MatchSlot& slot) {
  constexpr std::size_t kBlock = hash::seed_hash_batch<Hash>();
  std::array<Seed256, kBlock> candidates;
  Probe probe(hash, target);
  par::CheckThrottle throttle(blocks_per_check<Hash>(opts));

  u64 local_hashed = 0;
  u64 since_hook = 0;
  int last_shell = stream.last_shell();
  // Per-shell trace spans (obs/trace.hpp): opened/closed only at shell
  // transitions, so the hook cost is one null test per refill and nothing
  // per candidate. Null trace (the untraced default) records nothing.
  obs::SessionTrace* trace = ctx.trace();
  int span_shell = -1;
  u64 span_hashed = 0;
  double span_open_s = 0.0;
  const auto close_shell_span = [&] {
    if (trace == nullptr || span_shell < 0) return;
    trace->span(obs::SpanKind::kSearchShell, span_open_s, trace->now_s(),
                static_cast<u32>(span_shell), span_hashed);
  };
  while (true) {
    bool check_now = false;
    if (throttle.due()) {
      if (opts.quantum_hook) {
        opts.quantum_hook(0, since_hook);
        since_hook = 0;
      }
      check_now = true;
    }
    const std::size_t n = stream.fill(candidates.data(), kBlock);
    if (n == 0) break;
    if (stream.last_shell() != last_shell) {
      last_shell = stream.last_shell();
      check_now = true;  // between-shell poll point
      if (trace != nullptr) {
        close_shell_span();
        span_shell = last_shell;
        span_open_s = trace->now_s();
        span_hashed = 0;
      }
    }
    if (check_now &&
        (ctx.check_deadline() || ctx.should_stop(opts.early_exit))) {
      break;  // the just-fetched block is discarded unhashed
    }
    const std::size_t hit = probe(candidates.data(), n);
    const bool stop_at_hit = hit != n && opts.early_exit;
    if (hit != n) {
      slot.offer(candidates[hit], last_shell);
      ctx.signal_match();
    }
    // Lanes past a match that stops the scan were speculative.
    const std::size_t counted = stop_at_hit ? hit + 1 : n;
    local_hashed += counted;
    since_hook += counted;
    span_hashed += counted;
    if (stop_at_hit) break;
  }
  close_shell_span();
  if (opts.quantum_hook && since_hook > 0) opts.quantum_hook(0, since_hook);
  ctx.add_progress(local_hashed);
  return local_hashed;
}

}  // namespace detail

/// Searches for a seed whose hash equals `target`, running work units on
/// `workers`. The factory provides iterators over each shell (Gosper /
/// Algorithm 515 / Chase 382 all model the concept): one unit streams the
/// ball on the calling thread, more units drain tiles.
///
/// `session`, when non-null, is the authentication session's context: its
/// deadline (set at admission, so queue time counts against the threshold)
/// and cancellation govern the search, and progress is published to it. It
/// must be fresh for this search — the match flag is per-search state. When
/// null, a local context with an opts.timeout_s budget is used.
template <hash::SeedHash Hash, comb::TiledSeedIteratorFactory Factory>
SearchResult rbc_search(const Seed256& s_init,
                        const typename Hash::digest_type& target,
                        Factory& factory, par::WorkerGroup& workers,
                        const SearchOptions& opts, const Hash& hash = {},
                        par::SearchContext* session = nullptr) {
  RBC_CHECK(opts.max_distance >= 0 && opts.max_distance <= comb::kMaxK);
  RBC_CHECK(opts.num_threads >= 1);

  par::SearchContext local = par::SearchContext::with_budget(opts.timeout_s);
  par::SearchContext& ctx = session != nullptr ? *session : local;

  SearchResult result;
  WallTimer timer;

  // Lines 4-8: distance 0 — hash S_init itself (unit r = 0's job).
  result.seeds_hashed = 1;
  ctx.add_progress(1);
  if (hash(s_init) == target) {
    result.found = true;
    result.seed = s_init;
    result.distance = 0;
    result.canonical_rank = 1;
    result.host_seconds = timer.elapsed_s();
    return result;
  }

  detail::MatchSlot slot;
  if (opts.order == SearchOrder::kReliability && opts.reliability != nullptr) {
    // Reliability-ordered sessions stream on the calling thread regardless
    // of num_threads: the best-first enumeration is inherently sequential,
    // and an order-ignoring parallel schedule would discard the order.
    OrderedBallStream stream(s_init, opts.max_distance, opts.reliability,
                             opts.ordered_budget, factory.n_bits());
    stream.skip_base();
    result.seeds_hashed +=
        detail::scan_stream(stream, target, hash, opts, ctx, slot);
  } else if (opts.num_threads == 1) {
    // A single unit has nobody to steal from and nothing to pipeline into;
    // it drives the resumable stream directly (e.g. per-session server
    // searches). The stream starts after distance 0, hashed above.
    BallStream<Factory> stream(s_init, opts.max_distance, factory);
    stream.skip_base();
    result.seeds_hashed +=
        detail::scan_stream(stream, target, hash, opts, ctx, slot);
  } else {
    // Tiled shells overlap in flight, so a per-shell span would lie about
    // exclusivity; record one span over the whole tiled scan instead
    // (detail = d, value = candidates hashed by it).
    obs::SessionTrace* trace = ctx.trace();
    const double tiled_open_s = trace != nullptr ? trace->now_s() : 0.0;
    const u64 tiled = detail::rbc_search_tiled(s_init, target, factory,
                                               workers, opts, hash, ctx, slot);
    result.seeds_hashed += tiled;
    if (trace != nullptr) {
      trace->span(obs::SpanKind::kSearchShell, tiled_open_s, trace->now_s(),
                  static_cast<u32>(opts.max_distance), tiled);
    }
  }
  ctx.check_deadline();

  if (slot.found) {
    result.found = true;
    result.seed = slot.seed;
    result.distance = slot.distance;
    result.canonical_rank =
        comb::canonical_ball_rank(slot.seed ^ s_init, factory.n_bits());
  } else {
    result.timed_out = ctx.timed_out();
    result.cancelled = ctx.cancel_requested() && !ctx.timed_out();
  }
  result.host_seconds = timer.elapsed_s();
  return result;
}

}  // namespace rbc
