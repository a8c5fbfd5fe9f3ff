// Serving benchmark for the RBC-SALTED authentication server.
//
// One process drives the real server::AuthServer -> rbc -> combinatorics /
// hash / crypto stack with closed-loop clients: each client thread sends a
// handshake, waits for its verdict, then sends the next one (the paper's
// client waiting within the threshold T). Every session's work is a pure
// function of the workload seed:
//
//   * device ids are allocated so that client c owns whole challenge-RNG
//     stripes (stripe_of(id) % clients == c), so no two clients draw from
//     one stripe and the challenge sequence does not depend on thread timing;
//   * each run serves a fixed number of sessions per client, so two runs
//     with the same seed hash exactly the same seeds.
//
// Untraced runs print the end-to-end metrics. Traced runs serve the same
// plan again with benchmark-side spans, then replay a sample of sessions on
// one thread through each layer's public calls to build the per-layer
// ledger. Nothing inside src/ is instrumented.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "bits/seed256.hpp"
#include "common/types.hpp"
#include "rbc/search.hpp"

namespace perfbench {

using rbc::Bytes;
using rbc::Seed256;
using rbc::u32;
using rbc::u64;

// ---------------------------------------------------------------------------
// Workloads

/// How many client threads a workload runs and how wide each search is.
enum class Shape {
  kManyNarrow,  // nproc clients, width-1 searches
  kOneWide,     // one client, width-nproc searches
};

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kManyNarrow;
  int devices = 0;              // fleet size
  u32 addresses = 1;            // PUF addresses per device
  double erratic_fraction = 0.05;
  double enroll_max_flip_rate = 0.05;  // TAPKI calibration threshold
  bool tapki = true;
  int max_distance = 2;
  int majority_reads = 7;
  std::optional<rbc::SearchOrder> order;  // unset: the CA default
  /// Planted distance for device `index` (a pure function of seed + index).
  enum class Distance { kUniform0to2, kFour, kThree } distance =
      Distance::kUniform0to2;
  /// Hash per device: all SHA-3, or SHA-1/SHA-3 alternating by index.
  bool alternate_sha1 = false;
  /// Plan size: measured sessions per client per requested second. Fixed
  /// per workload (not adapted to the host), so the work is identical on
  /// every run and every commit.
  double sessions_per_client_per_s = 1.0;
  int warmup_per_client = 1;    // untimed sessions before measuring
  int replay_sample = 32;       // sessions replayed by the traced run
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// ---------------------------------------------------------------------------
// Pure helpers (covered by the self-tests)

/// Percentiles offered as the tail, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
/// Samples that must lie beyond the reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

struct TailChoice {
  double percentile = 0.0;
  std::size_t index = 0;   // 0-based nearest-rank index into sorted samples
  std::size_t beyond = 0;  // samples strictly after `index`
};

/// Samples strictly after the nearest-rank position of `percentile` among
/// `n` sorted samples (0 when that position does not exist).
std::size_t samples_beyond(double percentile, std::size_t n);

/// The highest ladder percentile with at least kTailBeyond samples beyond
/// its nearest-rank position; nullopt when `n` is too small for any.
std::optional<TailChoice> choose_tail(std::size_t n);

/// Latency percentiles are medians over segments of the run, each segment
/// large enough for a p99 with kTailBeyond samples beyond it. A short burst
/// of host noise then moves one segment's tail, not the reported median.
inline constexpr std::size_t kSegmentSamples = 1000;
inline constexpr std::size_t kMaxSegments = 8;

/// Segments for `n` samples: n / kSegmentSamples, clamped to
/// [1, kMaxSegments].
std::size_t tail_segments(std::size_t n);

/// Nearest-rank percentile of sorted samples (p in (0, 100]).
double nearest_rank(const std::vector<double>& sorted, double p);

double median(std::vector<double> v);

/// Device ids for `clients` closed-loop clients, `per_client` each, taken in
/// increasing order from `base`: id goes to client stripe_of(id) % clients.
/// Every stripe therefore belongs to exactly one client.
std::vector<std::vector<u64>> allocate_devices(u64 base, int per_client,
                                               int clients);

/// Checks one completed session's verdict against the distance planted in
/// the client's reading. Returns an error message, or nullopt when the
/// verdict is right: authenticated exactly when the planted distance is
/// within max_distance, and found at that distance.
std::optional<std::string> check_verdict(int planted_distance,
                                         int max_distance, bool authenticated,
                                         int found_distance);

/// Runs the self-tests; prints failures to stderr. Returns the failure count.
int run_selftests();

// ---------------------------------------------------------------------------
// Spans (benchmark-side tracing)

struct Span {
  u64 session = 0;
  u64 id = 0;      // unique within the run, never 0
  u64 parent = 0;  // 0: root
  const char* name = "";
  double t0 = 0.0;  // seconds since the process epoch
  double t1 = 0.0;
};

/// Seconds since the process epoch (steady clock, fixed at first use).
double now_s();

/// Per-span self time: its duration minus the union of its children.
std::vector<double> self_times(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Host

struct HostShape {
  int nproc = 1;        // CPUs in the affinity mask
  int clients = 1;      // closed-loop client threads
  int width = 1;        // EngineConfig::host_threads
};

HostShape host_shape(const WorkloadSpec& spec);

/// JSON object describing the host and build.
std::string host_fingerprint_json(const std::string& source_id);

}  // namespace perfbench
