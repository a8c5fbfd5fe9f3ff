#include "combinatorics/chase382.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

namespace rbc::comb {

namespace {

// One transition of Chase's Algorithm 382 in its iterative "twiddle"
// formulation. `ctrl` is the 1-based control array with sentinels at indices
// 0 and n+1. On a normal step, writes the 0-based bit position entering the
// combination to `in` and the position leaving to `out` and returns true;
// returns false when the sequence is exhausted.
bool twiddle_step(std::int16_t* ctrl, int& in, int& out) noexcept {
  int j = 1;
  while (ctrl[j] <= 0) ++j;
  if (ctrl[j - 1] == 0) {
    for (int i = j - 1; i != 1; --i) ctrl[i] = -1;
    ctrl[j] = 0;
    ctrl[1] = 1;
    in = 0;
    out = j - 1;
    return true;
  }
  if (j > 1) ctrl[j - 1] = 0;
  do {
    ++j;
  } while (ctrl[j] > 0);
  const int k = j - 1;
  int i = j;
  while (ctrl[i] == 0) ctrl[i++] = -1;
  if (ctrl[i] == -1) {
    ctrl[i] = ctrl[k];
    ctrl[k] = -1;
    in = i - 1;
    out = k - 1;
    return true;
  }
  if (i == ctrl[0]) return false;  // exhausted
  ctrl[j] = ctrl[i];
  ctrl[i] = 0;
  in = j - 1;
  out = i - 1;
  return true;
}

}  // namespace

ChaseSequence::ChaseSequence(int k, int n_bits) : n_bits_(n_bits) {
  RBC_CHECK(k >= 0 && k <= kMaxK && k <= n_bits && n_bits <= kSeedBits);
  auto& p = state_.control;
  const int n = n_bits;
  const int m = k;
  p[0] = static_cast<std::int16_t>(n + 1);
  for (int i = 1; i != n - m + 1; ++i) p[static_cast<unsigned>(i)] = 0;
  for (int i = n - m + 1; i != n + 1; ++i)
    p[static_cast<unsigned>(i)] = static_cast<std::int16_t>(i + m - n);
  p[static_cast<unsigned>(n + 1)] = -2;
  if (m == 0) p[1] = 1;

  // Initial combination: the m highest positions {n-m, ..., n-1}.
  state_.mask = Seed256{};
  for (int i = n - m; i < n; ++i) state_.mask.set_bit(i);
  state_.step_index = 0;
}

ChaseSequence::ChaseSequence(const ChaseState& state, int n_bits)
    : n_bits_(n_bits), state_(state) {}

bool ChaseSequence::advance() noexcept {
  int in = 0, out = 0;
  if (!twiddle_step(state_.control.data(), in, out)) return false;
  state_.mask.set_bit(in);
  state_.mask.clear_bit(out);
  ++state_.step_index;
  return true;
}

bool make_chase_snapshots_strided(int k, u64 stride,
                                  std::vector<ChaseState>& out, int n_bits,
                                  const std::function<bool()>& abort) {
  RBC_CHECK(stride >= 1);
  const u128 total128 = binomial128(n_bits, k);
  RBC_CHECK_MSG(total128 <= std::numeric_limits<u64>::max(),
                "chase snapshot walk too large");
  const u64 total = static_cast<u64>(total128);
  const u64 last = (total - 1) / stride * stride;  // the last snapshot's step

  out.clear();
  out.reserve(static_cast<std::size_t>(last / stride + 1));
  // Abort cadence: one predicate call per 16 Ki twiddle steps keeps the
  // check off the per-step fast path while bounding the walk's stop latency.
  constexpr u64 kAbortMask = 0x3fff;
  ChaseSequence seq(k, n_bits);
  u64 next_snapshot = 0;
  for (u64 step = 0;; ++step) {
    if (abort && (step & kAbortMask) == 0 && abort()) {
      out.clear();
      return false;
    }
    if (step == next_snapshot) {
      out.push_back(seq.state());
      if (step == last) return true;
      next_snapshot += stride;
    }
    const bool ok = seq.advance();
    RBC_CHECK_MSG(ok, "chase sequence ended early");
  }
}

namespace {

struct Registry {
  struct Entry {
    std::shared_ptr<const ChaseShellPlan> plan;
    bool walking = false;
    ChasePlanRegistry::Walks walks;
  };
  std::mutex mutex;
  std::condition_variable walked;
  std::map<std::tuple<int, int, u64>, Entry> entries;  // (n_bits, k, stride)
};

// Leaked on purpose: plans stay valid for detached workers at process exit.
Registry& registry() {
  static Registry* reg = new Registry();
  return *reg;
}

}  // namespace

std::shared_ptr<const ChaseShellPlan> ChasePlanRegistry::get(
    int k, u64 stride, int n_bits, const std::function<bool()>& abort) {
  Registry& reg = registry();
  std::unique_lock lock(reg.mutex);
  Registry::Entry& entry = reg.entries[{n_bits, k, stride}];
  while (entry.plan == nullptr) {
    // Wait out another caller's walk; the tick bounds how long a stopped
    // waiter lingers.
    reg.walked.wait_for(lock, std::chrono::milliseconds(2),
                        [&entry] { return !entry.walking; });
    if (entry.plan != nullptr) break;
    // The caller's own stop conditions, polled outside the lock on every
    // tick and before it would start a walk.
    lock.unlock();
    const bool stop = abort && abort();
    lock.lock();
    if (stop) return nullptr;
    if (entry.plan != nullptr || entry.walking) continue;

    entry.walking = true;
    ++entry.walks.started;
    lock.unlock();
    auto built = std::make_shared<ChaseShellPlan>();
    built->total_ = static_cast<u64>(binomial128(n_bits, k));
    built->stride_ = stride;
    built->n_bits_ = n_bits;
    const bool done =
        make_chase_snapshots_strided(k, stride, built->snapshots_, n_bits,
                                     abort);
    lock.lock();
    entry.walking = false;
    entry.walks.aborted += done ? 0 : 1;
    if (done) entry.plan = std::move(built);
    reg.walked.notify_all();
    return entry.plan;
  }
  return entry.plan;
}

ChasePlanRegistry::Walks ChasePlanRegistry::walks(int k, u64 stride,
                                                  int n_bits) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  const auto it = reg.entries.find({n_bits, k, stride});
  return it == reg.entries.end() ? Walks{} : it->second.walks;
}

void ChaseFactory::prepare(int k, int num_threads) {
  RBC_CHECK(num_threads >= 1);
  const u128 total = binomial128(n_bits_, k);
  const auto p = static_cast<u128>(num_threads);
  p_ = num_threads;
  active_ = plan(k, static_cast<u64>((total + p - 1) / p));
}

ChaseIterator ChaseFactory::make(int r) const {
  RBC_CHECK_MSG(active_ != nullptr, "ChaseFactory::prepare not called");
  RBC_CHECK(r >= 0 && r < p_);
  const auto t = static_cast<u64>(r);
  // More units than combinations: the units past the last tile get an
  // empty iterator.
  if (t >= active_->tiles()) return ChaseIterator(ChaseState{}, 0, n_bits_);
  return active_->make_tile(t);
}

}  // namespace rbc::comb
