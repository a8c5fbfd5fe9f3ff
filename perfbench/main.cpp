// perfbench: closed-loop serving benchmark (see perfbench.hpp).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>] [--scratch <dir>]
//   perfbench --selftest
//
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Earlier lines carry the host fingerprint, the exact seeds_hashed total,
// the tail percentile with its sample count and, when traced, the ledger.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "serving.hpp"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median. Traced runs report
/// no setup_s and set up once per serve.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string source = "unknown";
  std::string scratch = ".";
  bool selftest = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      a.trace = std::atoi(v);
    } else if (key == "--source") {
      a.source = v;
    } else if (key == "--scratch") {
      a.scratch = v;
    } else {
      return false;
    }
  }
  return a.selftest || (!a.workload.empty() && a.seconds > 0.0 &&
                        (a.trace == 0 || a.trace == 1));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Accumulates the gate over every serve of a run.
void merge(GateResult& into, const GateResult& g) {
  into.sessions += g.sessions;
  into.completed += g.completed;
  into.wrong_verdicts += g.wrong_verdicts;
  into.key_mismatches += g.key_mismatches;
  into.seed_invariant_violations += g.seed_invariant_violations;
  into.seeds_hashed += g.seeds_hashed;
  for (const auto& e : g.errors)
    if (into.errors.size() < 8) into.errors.push_back(e);
}

/// Session throughput at the full client count: sessions ending in a correct
/// verdict per wall second, counted while every client is still running
/// (from the last client's first submit to the first client's last verdict),
/// so the ramp-down after the earliest client finishes its plan is excluded.
double sessions_per_s(const ServeResult& s, const GateResult& g) {
  std::vector<double> first, last;
  for (const auto& r : s.records) {
    const auto c = static_cast<std::size_t>(r.session >> 32);
    if (c >= first.size()) {
      first.resize(c + 1, std::numeric_limits<double>::infinity());
      last.resize(c + 1, 0.0);
    }
    first[c] = std::min(first[c], r.t0);
    last[c] = std::max(last[c], r.t0 + r.latency_s);
  }
  if (first.empty()) return 0.0;
  const double from = *std::max_element(first.begin(), first.end());
  const double to = *std::min_element(last.begin(), last.end());
  u64 done = 0;
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const double end = s.records[i].t0 + s.records[i].latency_s;
    if (g.good[i] && end > from && end <= to) ++done;
  }
  return to > from ? static_cast<double>(done) / (to - from) : 0.0;
}

/// A failed session's latency is reported as the threshold T it missed.
double finite_ms(double ms) { return std::isfinite(ms) ? ms : 20000.0; }

struct LatencySummary {
  TailChoice tail;              // chosen per segment
  std::size_t segments = 1;
  std::size_t per_segment = 0;
  double p50_ms = 0.0;          // median over segments
  double tail_ms = 0.0;         // median over segments
  std::vector<double> sorted_ms;  // whole run, for the detail line
};

/// Client-side latencies of one serve. Sessions without a correct verdict
/// count as exceeding every percentile. Sessions are cut, in completion
/// order, into tail_segments() equal segments; p50 and the tail are taken
/// per segment and reported as medians over the segments.
std::optional<LatencySummary> summarize_latency(const ServeResult& serve,
                                                const GateResult& gate) {
  std::vector<std::pair<double, double>> by_end;  // (end time, latency ms)
  for (std::size_t i = 0; i < serve.records.size(); ++i) {
    const SessionRecord& r = serve.records[i];
    by_end.emplace_back(r.t0 + r.latency_s,
                        gate.good[i] ? r.latency_s * 1e3
                                     : std::numeric_limits<double>::infinity());
  }
  std::sort(by_end.begin(), by_end.end());
  LatencySummary out;
  out.segments = tail_segments(by_end.size());
  out.per_segment = by_end.size() / out.segments;
  const auto tail = choose_tail(out.per_segment);
  if (!tail) return std::nullopt;
  out.tail = *tail;
  std::vector<double> p50s, tails;
  for (std::size_t s = 0; s < out.segments; ++s) {
    const std::size_t lo = s * out.per_segment;
    const std::size_t hi =
        s + 1 == out.segments ? by_end.size() : lo + out.per_segment;
    std::vector<double> seg;
    for (std::size_t i = lo; i < hi; ++i) seg.push_back(by_end[i].second);
    std::sort(seg.begin(), seg.end());
    p50s.push_back(nearest_rank(seg, 50.0));
    tails.push_back(nearest_rank(seg, tail->percentile));
  }
  out.p50_ms = finite_ms(median(p50s));
  out.tail_ms = finite_ms(median(tails));
  for (const auto& e : by_end) out.sorted_ms.push_back(e.second);
  std::sort(out.sorted_ms.begin(), out.sorted_ms.end());
  return out;
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"session\": %llu, "
                 "\"id\": %llu, \"parent\": %llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.session >> 32),
                 s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                 static_cast<unsigned long long>(s.session),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

int run(const Args& args) {
  now_s();  // fixes the epoch: set-up 0 is timed from here
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const HostShape shape = host_shape(*spec);
  const int per_client = std::max(
      1, static_cast<int>(std::lround(spec->sessions_per_client_per_s *
                                      args.seconds)));

  GateResult gate;
  auto set_up = [&](bool time_enroll) {
    auto dep = std::make_unique<Deployment>(*spec, args.seed, shape,
                                            time_enroll);
    const ServeResult warm =
        serve(*dep, spec->warmup_per_client, false, /*warmup=*/true);
    return std::make_pair(std::move(dep), warm);
  };

  // ---- Set-up, several times: fleet generation, enrollment on nproc
  // threads, CA and server construction, and the warm-up sessions.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < (args.trace == 0 ? kSetups : 1); ++i) {
    dep.reset();
    const double t0 = i == 0 ? 0.0 : now_s();
    auto [fresh, warm] = set_up(false);
    setup_s.push_back(now_s() - t0);
    merge(gate, check_sessions(*fresh, warm.records));
    dep = std::move(fresh);
  }

  // ---- Measured serve (untraced).
  const ServeResult measured = serve(*dep, per_client, false);
  const GateResult measured_gate = check_sessions(*dep, measured.records);
  merge(gate, measured_gate);
  const double untraced_sps = sessions_per_s(measured, measured_gate);

  u64 attempted = measured_gate.sessions;
  u64 failed = measured_gate.failed();
  u64 seeds_hashed = measured_gate.seeds_hashed;

  const auto latency = summarize_latency(measured, measured_gate);
  if (!latency) {
    std::fprintf(stderr,
                 "perfbench: %zu sessions are too few for a tail percentile "
                 "with %zu samples beyond it\n",
                 measured.records.size(), kTailBeyond);
    return 3;
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  LayerResult layers;
  if (args.trace == 0) {
    metrics.push_back({"setup_s", {median(setup_s), "s"}});
    metrics.push_back({"sessions_per_s", {untraced_sps, "1/s"}});
    metrics.push_back({"session_p50_ms", {latency->p50_ms, "ms"}});
    metrics.push_back({"session_tail_ms", {latency->tail_ms, "ms"}});
    metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MiB"}});
  } else {
    // ---- Traced run: the same plan from a fresh set-up, with spans, then
    // the one-thread replay and the layer probes.
    dep.reset();
    auto [fresh, warm] = set_up(true);
    merge(gate, check_sessions(*fresh, warm.records));
    dep = std::move(fresh);
    const ServeResult traced = serve(*dep, per_client, true);
    const GateResult traced_gate = check_sessions(*dep, traced.records);
    merge(gate, traced_gate);
    attempted += traced_gate.sessions;
    failed += traced_gate.failed();
    if (traced_gate.seeds_hashed != measured_gate.seeds_hashed) {
      gate.errors.push_back("traced serve hashed " +
                            std::to_string(traced_gate.seeds_hashed) +
                            " seeds, untraced " +
                            std::to_string(measured_gate.seeds_hashed));
      ++gate.seed_invariant_violations;
    }
    layers = measure_layers(*dep, traced, untraced_sps,
                            sessions_per_s(traced, traced_gate), args.scratch);
    for (const auto& m : layers.metrics)
      metrics.push_back({m.name, {m.value, m.unit}});
    std::vector<Span> spans = traced.spans;
    spans.insert(spans.end(), layers.spans.begin(), layers.spans.end());
    write_trace((std::filesystem::path(args.scratch) /
                 ("trace-" + spec->name + "-" + std::to_string(args.seed) +
                  ".json"))
                    .string(),
                spans);
    for (const auto& line : layers.ledger)
      std::printf("ledger %s: %s\n", spec->name.c_str(), line.c_str());
  }
  dep.reset();

  const bool correct = gate.ok() && layers.mismatches == 0;
  for (const auto& e : gate.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  for (const auto& e : layers.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());

  // ---- Detail line: exact work, tail choice, gate and host.
  std::string detail = "{\"perfbench\": {\"workload\": \"" + spec->name +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"clients\": " + std::to_string(shape.clients) +
                       ", \"search_width\": " + std::to_string(shape.width) +
                       ", \"sessions\": " + std::to_string(measured_gate.sessions) +
                       ", \"seeds_hashed\": " + std::to_string(seeds_hashed) +
                       ", \"tail\": {\"percentile\": " + num(latency->tail.percentile) +
                       ", \"segments\": " + std::to_string(latency->segments) +
                       ", \"samples_per_segment\": " +
                       std::to_string(latency->per_segment) +
                       ", \"beyond_per_segment\": " +
                       std::to_string(latency->tail.beyond) +
                       "}, \"latency_ms\": {";
  const std::pair<const char*, double> kShown[] = {
      {"p50", 50.0}, {"p90", 90.0}, {"p99", 99.0}, {"p99.9", 99.9}, {"max", 100.0}};
  for (const auto& [key, p] : kShown) {
    detail += std::string(p == 50.0 ? "\"" : ", \"") + key + "\": " +
              num(finite_ms(nearest_rank(latency->sorted_ms, p)));
  }
  detail += "}, \"wall_s\": " + num(measured.wall_s) + ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    detail += (i ? ", " : "") + num(setup_s[i]);
  detail += "], \"gate\": {\"sessions\": " + std::to_string(gate.sessions) +
            ", \"completed\": " + std::to_string(gate.completed) +
            ", \"wrong_verdicts\": " + std::to_string(gate.wrong_verdicts) +
            ", \"key_mismatches\": " + std::to_string(gate.key_mismatches) +
            ", \"seed_invariant_violations\": " +
            std::to_string(gate.seed_invariant_violations) +
            ", \"replay_mismatches\": " + std::to_string(layers.mismatches) +
            "}";
  if (!layers.metrics.empty()) {
    detail += ", \"layer_calls\": {";
    for (std::size_t i = 0; i < layers.metrics.size(); ++i)
      detail += (i ? ", \"" : "\"") + layers.metrics[i].name +
                "\": " + std::to_string(layers.metrics[i].calls);
    detail += "}";
  }
  detail += ", \"host\": " + host_fingerprint_json(args.source) + "}}";
  std::printf("%s\n", detail.c_str());

  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
              num(metrics[i].second.first) + ", \"unit\": \"" +
              metrics[i].second.second + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--source <id>] [--scratch <dir>]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  if (args.selftest) return perfbench::run_selftests() == 0 ? 0 : 1;
  return perfbench::run(args);
}
