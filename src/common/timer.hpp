// Monotonic wall-clock timer used by benches, and the calling thread's CPU
// clock used by the throughput probe.
#pragma once

#include <time.h>

#include <chrono>

namespace rbc {

class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double elapsed_s() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const noexcept { return elapsed_s() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time the calling thread has consumed. Unlike WallTimer it does not
/// advance while the thread is preempted, so a single-threaded cost probe
/// reads the same on a loaded host as on an idle one.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() noexcept : start_s_(now_s()) {}

  /// Thread CPU seconds since construction.
  double elapsed_s() const noexcept { return now_s() - start_s_; }

 private:
  static double now_s() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_s_;
};

}  // namespace rbc
