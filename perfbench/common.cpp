#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common/shard_hash.hpp"
#include "hash/cpu_features.hpp"
#include "perfbench.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    // Honest fleet at d <= 2: fixed per-session costs (keygen, record
    // decrypts, challenge, codec, serving) dominate the search.
    WorkloadSpec fleet;
    fleet.name = "fleet_d2";
    fleet.shape = Shape::kManyNarrow;
    fleet.devices = 4096;
    fleet.addresses = 4;
    fleet.max_distance = 2;
    fleet.distance = WorkloadSpec::Distance::kUniform0to2;
    fleet.sessions_per_client_per_s = 150.0;
    fleet.warmup_per_client = 8;
    fleet.replay_sample = 96;
    v.push_back(fleet);

    // Readings 4 flips out against a d <= 3 budget: every session exhausts
    // the whole ball and is rejected, so hashing, mask generation and the
    // tile scheduler do nearly all the work. SHA-1 and SHA-3 alternate.
    WorkloadSpec impostor;
    impostor.name = "impostor_d3";
    impostor.shape = Shape::kOneWide;
    impostor.devices = 256;
    impostor.addresses = 4;
    impostor.max_distance = 3;
    impostor.distance = WorkloadSpec::Distance::kFour;
    impostor.alternate_sha1 = true;
    impostor.sessions_per_client_per_s = 3.0;
    impostor.warmup_per_client = 2;
    impostor.replay_sample = 8;
    v.push_back(impostor);

    // Reliability-ordered d = 3 search: TAPKI off, enrolled flip profiles,
    // best-first OrderedBallStream, and a few honest readings that drift
    // past d = 3 and become full-ball misses.
    WorkloadSpec ordered;
    ordered.name = "ordered_d3";
    ordered.shape = Shape::kManyNarrow;
    ordered.devices = 1024;
    ordered.addresses = 1;
    ordered.erratic_fraction = 0.10;
    ordered.enroll_max_flip_rate = 1.0;  // keep every cell's measured rate
    ordered.tapki = false;
    ordered.max_distance = 3;
    ordered.majority_reads = 63;
    ordered.order = rbc::SearchOrder::kReliability;
    ordered.distance = WorkloadSpec::Distance::kThree;
    ordered.sessions_per_client_per_s = 12.8;
    ordered.warmup_per_client = 2;
    ordered.replay_sample = 48;
    v.push_back(ordered);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::size_t samples_beyond(double percentile, std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n)));
  return rank >= 1 && rank <= n ? n - rank : 0;
}

std::optional<TailChoice> choose_tail(std::size_t n) {
  for (double p : kTailLadder) {
    const std::size_t beyond = samples_beyond(p, n);
    if (beyond >= kTailBeyond) return TailChoice{p, n - beyond - 1, beyond};
  }
  return std::nullopt;
}

std::size_t tail_segments(std::size_t n) {
  return std::clamp<std::size_t>(n / kSegmentSamples, 1, kMaxSegments);
}

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::vector<u64>> allocate_devices(u64 base, int per_client,
                                               int clients) {
  RBC_CHECK(clients >= 1 &&
            clients <= static_cast<int>(rbc::kAuthorityStripes));
  std::vector<std::vector<u64>> owned(static_cast<std::size_t>(clients));
  int full = 0;
  for (u64 id = base; full < clients; ++id) {
    auto& mine = owned[rbc::stripe_of(id) % static_cast<u32>(clients)];
    if (static_cast<int>(mine.size()) >= per_client) continue;
    mine.push_back(id);
    if (static_cast<int>(mine.size()) == per_client) ++full;
  }
  return owned;
}

std::optional<std::string> check_verdict(int planted_distance,
                                         int max_distance, bool authenticated,
                                         int found_distance) {
  const bool should_authenticate = planted_distance <= max_distance;
  if (authenticated != should_authenticate) {
    return std::string(authenticated ? "authenticated" : "rejected") +
           " a reading at distance " + std::to_string(planted_distance) +
           " with max_distance " + std::to_string(max_distance);
  }
  if (authenticated && found_distance != planted_distance) {
    return "found at distance " + std::to_string(found_distance) +
           ", planted at " + std::to_string(planted_distance);
  }
  return std::nullopt;
}

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::vector<std::pair<u64, std::size_t>> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace_back(spans[i].id, i);
  std::sort(by_id.begin(), by_id.end());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = std::lower_bound(by_id.begin(), by_id.end(),
                               std::make_pair(s.parent, std::size_t{0}));
    if (it == by_id.end() || it->first != s.parent) continue;
    children[it->second].emplace_back(s.t0, s.t1);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.t0);
      hi = std::min(hi, s.t1);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.t1 - s.t0) - covered;
  }
  return self;
}

namespace {

int affinity_cpus(std::string* list) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    const int hc = static_cast<int>(std::thread::hardware_concurrency());
    if (list != nullptr) *list = "unknown";
    return std::max(1, hc);
  }
  std::string out;
  int count = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    ++count;
    int end = cpu;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    if (end > cpu) {
      out += '-';
      out += std::to_string(end);
    }
    count += end - cpu;
    cpu = end;
  }
  if (list != nullptr) *list = out;
  return std::max(1, count);
}

struct CpuFlags {
  bool avx512f = false, avx512vl = false, avx512bw = false, sha_ni = false;
};

CpuFlags cpu_flags() {
  CpuFlags f;
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    f.avx512f = (b >> 16) & 1u;
    f.sha_ni = (b >> 29) & 1u;
    f.avx512bw = (b >> 30) & 1u;
    f.avx512vl = (b >> 31) & 1u;
  }
#endif
  return f;
}

}  // namespace

HostShape host_shape(const WorkloadSpec& spec) {
  HostShape shape;
  shape.nproc = affinity_cpus(nullptr);
  if (spec.shape == Shape::kManyNarrow) {
    // One client per CPU, capped so every client owns at least one stripe.
    shape.clients = std::min(shape.nproc,
                             static_cast<int>(rbc::kAuthorityStripes));
    shape.width = 1;
  } else {
    shape.clients = 1;
    shape.width = shape.nproc;
  }
  return shape;
}

std::string host_fingerprint_json(const std::string& source_id) {
  std::string affinity;
  const int nproc = affinity_cpus(&affinity);
  const CpuFlags f = cpu_flags();
  auto b = [](bool v) { return v ? "true" : "false"; };
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %d, \"hardware_concurrency\": %u, \"affinity\": \"%s\", "
      "\"simd_active\": \"%s\", \"simd_detected\": \"%s\", "
      "\"avx512f\": %s, \"avx512vl\": %s, \"avx512bw\": %s, \"sha_ni\": %s, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"source\": \"%s\"}",
      nproc, std::thread::hardware_concurrency(), affinity.c_str(),
      std::string(rbc::hash::to_string(rbc::hash::active_simd_level())).c_str(),
      std::string(rbc::hash::to_string(rbc::hash::detected_simd_level()))
          .c_str(),
      b(f.avx512f), b(f.avx512vl), b(f.avx512bw), b(f.sha_ni),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, source_id.c_str());
  return buf;
}

}  // namespace perfbench
