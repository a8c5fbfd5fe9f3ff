// Distributed-memory RBC search over the message-passing substrate — the
// Philabaum et al. [36] engine shape, applied to the SALTED (hash-based)
// per-candidate operation.
//
// Topology: rank 0 is both the coordinator and a worker. Work distribution
// is GUIDED SELF-SCHEDULING rather than static slices (PR 4): a rank asks
// rank 0 for work (WANT), rank 0 grants a contiguous chunk of the current
// shell's lexicographic sequence — shrinking from remaining/(2*size) down
// to a check-interval-sized floor — and the rank unranks its start with
// Algorithm 515 and walks the chunk with successor stepping. There are NO
// per-shell barriers in exhaustive mode: as soon as a shell's chunks are all
// granted, rank 0 moves its grant pointer to the next shell while
// stragglers finish their last chunks in the background; a rank that
// outruns the coordinator has its request deferred until the grant pointer
// catches up. Under early exit the pointer moves only once every chunk of
// the shell is back (its holder has asked again), so a match in shell k is
// always seen before any rank is granted shell k+1: otherwise one
// descheduled finder lets the other ranks search the whole next shell.
// The wait is at most one floor-sized chunk per shell. Each rank walks
// its chunks in candidate blocks through the search core's probe
// (rbc/search.hpp), so batched hash policies hash many lanes per call here
// exactly as they do in the shared-memory engines.
//
// The early-exit protocol is explicit message traffic, as it must be
// without shared memory:
//   * a rank that finds the seed sends FOUND to rank 0 (chunks may be in
//     flight for two adjacent shells, so rank 0 keeps the minimal shell);
//   * rank 0 broadcasts STOP; ranks poll their mailbox between candidate
//     blocks at the same SearchOptions::check_interval cadence the
//     shared-memory engines use (§4.4);
//   * every WANT is answered — with a chunk or an empty grant — so no rank
//     ever blocks on a silent coordinator, and the search ends with a
//     count-aggregation sweep instead of a barrier chain.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "combinatorics/algorithm515.hpp"
#include "dist/comm.hpp"
#include "hash/traits.hpp"
#include "parallel/search_context.hpp"
#include "rbc/search.hpp"

namespace rbc::dist {

struct DistSearchResult {
  bool found = false;
  Seed256 seed;
  int distance = -1;
  int finder_rank = -1;
  u64 seeds_hashed = 0;   // aggregated over all ranks
  bool timed_out = false; // session deadline expired before the ball was done
};

namespace detail {
inline constexpr int kTagWork = 1;  // rank -> 0: WANT or FOUND
inline constexpr int kTagTile = 2;  // 0 -> rank: chunk grant (empty = move on)
inline constexpr int kTagStop = 3;  // 0 -> ranks: stop searching
inline constexpr int kTagCount = 4; // rank -> 0: final seed count

inline constexpr u8 kMsgWant = 0;
inline constexpr u8 kMsgFound = 1;

inline Bytes encode_want(int shell) {
  return Bytes{kMsgWant, static_cast<u8>(shell)};
}

inline Bytes encode_found(const Seed256& seed, int shell) {
  const auto bytes = seed.to_bytes();
  Bytes out(2 + bytes.size());
  out[0] = kMsgFound;
  out[1] = static_cast<u8>(shell);
  std::memcpy(out.data() + 2, bytes.data(), bytes.size());
  return out;
}

/// Chunk grant: 16-byte lexicographic start rank + 8-byte count.
inline Bytes encode_grant(u128 lo, u64 n) {
  Bytes out(24);
  std::memcpy(out.data(), &lo, 16);
  std::memcpy(out.data() + 16, &n, 8);
  return out;
}

inline void decode_grant(const Bytes& payload, u128& lo, u64& n) {
  std::memcpy(&lo, payload.data(), 16);
  std::memcpy(&n, payload.data() + 16, 8);
}
}  // namespace detail

/// Runs the distributed search on an existing communicator with rank-0
/// guided chunk scheduling (see the header comment). Honors
/// opts.max_distance, opts.check_interval (the mailbox/deadline poll
/// cadence), opts.early_exit, and opts.timeout_s.
///
/// `session`, when non-null, carries the authentication deadline and
/// external cancellation: every rank polls it at its chunk cadence (the
/// shared-nothing analogue of the unified-memory flag — here the context IS
/// shared because ranks are host threads; a true MPI deployment would
/// broadcast the expiry as a STOP message, which rank 0 also does). When
/// null, a local context enforcing opts.timeout_s is used.
template <hash::SeedHash Hash>
DistSearchResult distributed_search(Communicator& comm, const Seed256& s_init,
                                    const typename Hash::digest_type& target,
                                    const SearchOptions& opts = {},
                                    const Hash& hash = {},
                                    par::SearchContext* session = nullptr) {
  RBC_CHECK(opts.max_distance >= 0 && opts.max_distance <= comb::kMaxK);
  const int max_distance = opts.max_distance;
  const u64 min_chunk = std::max<u64>(opts.check_interval, 64);
  const u32 check_blocks = rbc::detail::blocks_per_check<Hash>(opts);

  DistSearchResult result;
  std::mutex result_mutex;
  par::SearchContext local = par::SearchContext::with_budget(opts.timeout_s);
  par::SearchContext& sctx = session != nullptr ? *session : local;

  comm.run([&](RankCtx& ctx) {
    const int rank = ctx.rank();
    const int size = ctx.size();
    u64 local_hashed = 0;
    bool stop = false;

    auto poll_stop = [&]() {
      Packet packet;
      if (ctx.try_recv(detail::kTagStop, packet)) stop = true;
      if (sctx.cancel_requested()) stop = true;
      return stop;
    };

    auto record_found = [&](const Seed256& seed, int shell, int finder) {
      std::lock_guard lock(result_mutex);
      if (!result.found || shell < result.distance) {
        result.found = true;
        result.seed = seed;
        result.distance = shell;
        result.finder_rank = finder;
      }
    };

    // Walks `[lo, lo + n)` of `shell`'s lexicographic sequence in candidate
    // blocks through the search core's probe; polls the mailbox/deadline at
    // the check_interval cadence the shared-memory engines use (§4.4).
    // Reports a match to rank 0 and, under early exit, abandons the rest of
    // the chunk (the lanes after a match are speculative); exhaustive mode
    // finishes the chunk so the aggregated count is the exact ball size.
    constexpr std::size_t kBlock = hash::seed_hash_batch<Hash>();
    std::array<Seed256, kBlock> candidates;
    rbc::detail::Probe probe(hash, target);
    auto search_chunk = [&](int shell, u128 lo, u64 n) {
      comb::Algorithm515Iterator it(shell, lo, n, comb::Alg515Mode::kSuccessor);
      par::CheckThrottle throttle(check_blocks);
      while (true) {
        std::size_t filled = 0;
        Seed256 mask;
        while (filled < kBlock && it.next(mask))
          candidates[filled++] = s_init ^ mask;
        if (filled == 0) return;
        const std::size_t hit = probe(candidates.data(), filled);
        if (hit != filled) {
          ctx.send(0, detail::kTagWork,
                   detail::encode_found(candidates[hit], shell));
          if (opts.early_exit) {
            local_hashed += hit + 1;
            return;
          }
        }
        local_hashed += filled;
        if (throttle.due()) {
          sctx.check_deadline();
          if (poll_stop()) return;
        }
      }
    };

    // Distance 0 is rank 0's job (Algorithm 1 lines 4-8).
    if (rank == 0) {
      ++local_hashed;
      if (hash(s_init) == target) record_found(s_init, 0, 0);
    }

    if (rank != 0) {
      // Worker: per shell, keep asking the coordinator for chunks until it
      // answers with an empty grant, then flow into the next shell — the
      // coordinator's grant pointer, not a barrier, is what orders shells.
      for (int shell = 1; shell <= max_distance && !stop; ++shell) {
        while (true) {
          if (poll_stop()) break;
          ctx.send(0, detail::kTagWork, detail::encode_want(shell));
          const Packet grant = ctx.recv(detail::kTagTile);
          if (grant.payload.empty()) break;  // shell drained; move on
          u128 lo = 0;
          u64 n = 0;
          detail::decode_grant(grant.payload, lo, n);
          search_chunk(shell, lo, n);
        }
      }
    } else {
      // Coordinator (and worker): grant guided chunks of the current shell,
      // interleaving its own search in min_chunk quanta so the mailbox is
      // serviced at the same cadence the workers poll at.
      bool stopping = false;
      bool stop_sent = false;
      std::deque<Packet> deferred;  // WANTs for shells ahead of the pointer
      // Ranks holding a granted chunk they have not yet asked past; a
      // rank's FOUND precedes its next WANT in rank 0's mailbox.
      std::vector<u8> holds_chunk(static_cast<std::size_t>(size), 0);
      int holders = 0;

      auto broadcast_stop = [&] {
        if (stop_sent) return;
        stop_sent = true;
        for (int r = 1; r < size; ++r) ctx.send(r, detail::kTagStop, Bytes{});
      };

      int current_shell = 0;
      u128 remaining = 0;
      u128 next_lo = 0;

      auto grant_to = [&](int dest, int want_shell) {
        if (!stopping && want_shell == current_shell && remaining > 0) {
          // Guided self-scheduling: hand out half an even share of what is
          // left, never below the poll-cadence floor.
          u128 n = remaining / (2 * static_cast<u128>(size));
          if (n < min_chunk) n = min_chunk;
          if (n > remaining) n = remaining;
          ctx.send(dest, detail::kTagTile,
                   detail::encode_grant(next_lo, static_cast<u64>(n)));
          holds_chunk[static_cast<std::size_t>(dest)] = 1;
          ++holders;
          next_lo += n;
          remaining -= n;
        } else if (!stopping && want_shell > current_shell) {
          // The rank outran the grant pointer; answer once we get there.
          deferred.push_back(Packet{dest, detail::kTagWork,
                                    detail::encode_want(want_shell)});
        } else {
          // Past shell, drained shell, or stopping: release the rank.
          ctx.send(dest, detail::kTagTile, Bytes{});
        }
      };

      auto handle_work = [&](const Packet& packet) {
        if (packet.payload[0] == detail::kMsgFound) {
          record_found(
              Seed256::from_bytes(ByteSpan{packet.payload.data() + 2,
                                           Seed256::kBytes}),
              packet.payload[1], packet.source);
          if (opts.early_exit) {
            stopping = true;
            broadcast_stop();
          }
          return;
        }
        if (holds_chunk[static_cast<std::size_t>(packet.source)] != 0) {
          holds_chunk[static_cast<std::size_t>(packet.source)] = 0;
          --holders;
        }
        grant_to(packet.source, packet.payload[1]);
      };

      auto service_mailbox = [&] {
        Packet packet;
        while (ctx.try_recv(detail::kTagWork, packet)) handle_work(packet);
        if (!stopping &&
            (sctx.check_deadline() || sctx.cancel_requested())) {
          stopping = true;
          broadcast_stop();
        }
      };

      for (int shell = 1; shell <= max_distance && !stopping; ++shell) {
        current_shell = shell;
        const u128 total = comb::binomial128(comb::kSeedBits, shell);
        next_lo = 0;
        remaining = total;
        // Ranks that finished the previous shell before the pointer moved:
        // their deferred WANTs are the first grants of this shell.
        for (std::deque<Packet> waiting = std::move(deferred);
             !waiting.empty(); waiting.pop_front()) {
          handle_work(waiting.front());
        }
        while (remaining > 0 && !stopping) {
          service_mailbox();
          if (stopping || remaining == 0) break;
          // Self-grant one poll-cadence quantum and search it.
          const u64 n =
              static_cast<u64>(std::min<u128>(remaining, min_chunk));
          const u128 lo = next_lo;
          next_lo += n;
          remaining -= n;
          search_chunk(shell, lo, n);
          if (stop) stopping = true;
        }
        // Early exit: take in this shell's outstanding chunks (and any
        // FOUND, rank 0's own included) before moving the pointer on.
        if (opts.early_exit) {
          service_mailbox();
          while (!stopping && holders > 0) {
            std::this_thread::yield();
            service_mailbox();
          }
        }
      }

      // Wind-down: release every parked rank, then answer stray WANTs with
      // empty grants until all counts are in. current_shell is now past the
      // ball, so grant_to() releases unconditionally.
      current_shell = max_distance + 1;
      for (; !deferred.empty(); deferred.pop_front())
        handle_work(deferred.front());
      int counts_received = 0;
      u64 total_hashed = 0;
      while (counts_received < size - 1) {
        Packet packet;
        if (ctx.try_recv(detail::kTagCount, packet)) {
          u64 contribution = 0;
          std::memcpy(&contribution, packet.payload.data(), 8);
          total_hashed += contribution;
          ++counts_received;
          continue;
        }
        if (ctx.try_recv(detail::kTagWork, packet)) {
          handle_work(packet);
          continue;
        }
        std::this_thread::yield();
      }
      // Late FOUND reports can trail a rank's count (different tags are
      // independent queues); drain them before closing the book.
      Packet packet;
      while (ctx.try_recv(detail::kTagWork, packet)) handle_work(packet);
      {
        std::lock_guard lock(result_mutex);
        result.seeds_hashed = total_hashed + local_hashed;
      }
    }

    sctx.add_progress(local_hashed);
    if (rank != 0) {
      Bytes count(8);
      std::memcpy(count.data(), &local_hashed, 8);
      ctx.send(0, detail::kTagCount, std::move(count));
    }
    // All traffic (including any STOP broadcast) is delivered before rank 0
    // finishes its count sweep; rendezvous once, then drain strays so
    // reruns on this communicator start clean.
    ctx.barrier();
    Packet stray;
    while (ctx.try_recv(detail::kTagStop, stray)) {
    }
  });

  if (!result.found) {
    result.timed_out = sctx.timed_out();
  }
  return result;
}

}  // namespace rbc::dist
