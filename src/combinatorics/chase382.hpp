// Chase's Algorithm 382 (CACM 13(6), 1970) — the winning seed iterator.
//
// Chase's sequence is a combinatorial Gray code: consecutive combinations
// differ by moving a single element, so stepping costs O(1) bit flips plus a
// short scan of the control array. It is inherently sequential (each step
// depends on the previous state), which §3.2.1 solves by *state
// snapshotting*: the sequence is walked once, saving the generator state at
// regular intervals; each of the p threads then resumes from its snapshot and
// walks its slice independently. Snapshots depend only on (n, k, stride) —
// not on the client — so ChasePlanRegistry walks each shell once per process,
// on first use, and every later authentication reuses the plan (the paper
// excludes this one-time cost from its timings; bench_cpu_scaling reports it
// as its own row).
//
// The implementation is the classic iterative "twiddle" formulation of
// Chase's algorithm: a control array p[0..n+1] drives each transition, and
// every call reports one position entering the combination and one leaving.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "bits/seed256.hpp"
#include "combinatorics/combination.hpp"
#include "common/types.hpp"

namespace rbc::comb {

/// Resumable generator state: the control array plus the current mask.
/// This is exactly the per-thread state the GPU algorithm keeps in shared
/// memory (§3.2.3) — ~0.5 KiB per thread for n = 256.
struct ChaseState {
  std::array<std::int16_t, kSeedBits + 2> control{};
  Seed256 mask;       // current combination as a bit mask
  u64 step_index = 0; // 0-based index of `mask` within the full sequence
};

/// Sequential walker over the full Chase sequence of k-subsets of
/// {0..n_bits-1}. Produces C(n_bits, k) combinations, each differing from
/// the previous by one element swapped in and one swapped out.
class ChaseSequence {
 public:
  ChaseSequence(int k, int n_bits = kSeedBits);
  explicit ChaseSequence(const ChaseState& state, int n_bits = kSeedBits);

  /// The current combination's mask.
  const Seed256& mask() const noexcept { return state_.mask; }

  /// Advances to the next combination. Returns false when the sequence is
  /// exhausted (the current mask was the last one).
  bool advance() noexcept;

  const ChaseState& state() const noexcept { return state_; }

 private:
  int n_bits_;
  ChaseState state_;
};

/// The §3.2.1 precomputation: walks the sequence once, saving a snapshot at
/// every `stride`-th step (snapshot i at step i*stride), so snapshot
/// boundaries coincide exactly with tile boundaries; the walk stops at the
/// last snapshot. Cost O(C(n_bits, k)). Returns false — leaving `out` empty
/// — when `abort` (polled at a coarse step cadence) asks the walk to stop
/// early, which is how a session deadline cuts the one-time precomputation
/// short.
bool make_chase_snapshots_strided(int k, u64 stride,
                                  std::vector<ChaseState>& out,
                                  int n_bits = kSeedBits,
                                  const std::function<bool()>& abort = {});

/// Per-thread iterator resuming from a snapshot for `count` combinations.
class ChaseIterator {
 public:
  ChaseIterator(const ChaseState& state, u64 count, int n_bits = kSeedBits)
      : seq_(state, n_bits), count_(count), produced_(0) {}

  static constexpr std::string_view name() { return "Chase's Algorithm 382"; }

  bool next(Seed256& mask) noexcept {
    if (produced_ == count_ || exhausted_) return false;
    mask = seq_.mask();
    ++produced_;
    // The count normally bounds the slice exactly; when a caller asks for
    // more than the sequence holds, stop at genuine exhaustion instead of
    // repeating the final combination.
    if (produced_ != count_ && !seq_.advance()) exhausted_ = true;
    return true;
  }

  u64 produced() const noexcept { return produced_; }

 private:
  ChaseSequence seq_;
  u64 count_;
  u64 produced_;
  bool exhausted_ = false;
};

/// Immutable tile decomposition of one shell: tile t resumes from the
/// snapshot saved at step t*stride and walks min(stride, total - t*stride)
/// combinations. The snapshots ARE the tile boundaries, so a tiled walk
/// concatenates to exactly the rank-0 Chase sequence.
class ChaseShellPlan {
 public:
  using iterator = ChaseIterator;

  u64 tiles() const noexcept { return snapshots_.size(); }
  u64 total() const noexcept { return total_; }
  u64 tile_count(u64 t) const noexcept {
    const u64 lo = t * stride_;
    return stride_ < total_ - lo ? stride_ : total_ - lo;
  }
  ChaseIterator make_tile(u64 t) const {
    return ChaseIterator(snapshots_[static_cast<std::size_t>(t)],
                         tile_count(t), n_bits_);
  }
  /// Raw snapshot access for the GPU kernel, which stages the state into its
  /// block's shared-memory arena before iterating (§3.2.3).
  const ChaseState& snapshot(u64 t) const {
    return snapshots_[static_cast<std::size_t>(t)];
  }

 private:
  friend class ChasePlanRegistry;
  std::vector<ChaseState> snapshots_;
  u64 total_ = 0;
  u64 stride_ = 1;
  int n_bits_ = kSeedBits;
};

/// Process-wide registry of immutable shell plans keyed by (n_bits, k,
/// stride). A plan is walked once per process, on first use, and shared
/// read-only by every search after that. Footprint: one ~556 B ChaseState per
/// tile, never evicted — d = 3 over 256 bits at the default 4096-seed tiles
/// is 675 snapshots, about 370 KB.
///
/// One caller walks a missing key; other callers of the same key wait on a
/// short timed wait that polls their own `abort`, so each one's deadline,
/// cancellation or match still stops it promptly. A walk its builder's
/// `abort` cuts short is not cached and does not fail the waiters: the next
/// caller walks the key itself.
class ChasePlanRegistry {
 public:
  /// The plan for (n_bits, k, stride), walking it on first use. Returns
  /// nullptr when `abort` fired first, during this caller's walk or wait.
  static std::shared_ptr<const ChaseShellPlan> get(
      int k, u64 stride, int n_bits = kSeedBits,
      const std::function<bool()>& abort = {});

  /// Walks of one key since process start: how many began and how many of
  /// those `abort` cut short.
  struct Walks {
    u64 started = 0;
    u64 aborted = 0;
  };
  static Walks walks(int k, u64 stride, int n_bits = kSeedBits);
};

/// Factory over the registry; it holds no snapshots of its own, so fresh
/// factories (one per search) share the process's walks. prepare(k, p)
/// selects the plan at stride ceil(C(n_bits, k) / p) — the §3.2.1
/// equal-workload partition, slice r = tile r — and make(r) opens slice r,
/// empty past the last one. prepare()/make() keep the single-preparer
/// discipline; plan() is safe from any number of threads.
class ChaseFactory {
 public:
  using iterator = ChaseIterator;
  using shell_plan = ChaseShellPlan;

  explicit ChaseFactory(int n_bits = kSeedBits) : n_bits_(n_bits) {}

  static constexpr std::string_view name() { return "Chase's Algorithm 382"; }

  int n_bits() const noexcept { return n_bits_; }

  void prepare(int k, int num_threads);

  ChaseIterator make(int r) const;

  /// Registry plan with a snapshot at every stride boundary; nullptr when
  /// `abort` stopped this caller first.
  std::shared_ptr<const ChaseShellPlan> plan(
      int k, u64 stride, const std::function<bool()>& abort = {}) const {
    return ChasePlanRegistry::get(k, stride, n_bits_, abort);
  }

 private:
  int n_bits_;
  int p_ = 1;
  std::shared_ptr<const ChaseShellPlan> active_;
};

}  // namespace rbc::comb
