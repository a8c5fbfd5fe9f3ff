// Per-layer ledger: times each layer from outside, through its public calls.
//
// What each metric should move (predictions, per workload):
//   server.*            sessions_per_s / session_tail_ms on fleet_d2;
//                       no change on impostor_d3.
//   rbc.record_load_us, rbc.challenge_us
//                       session_p50_ms on fleet_d2.
//   rbc.search_ms       everything on impostor_d3, session_tail_ms on fleet_d2.
//   rbc.seeds_per_session, rbc.hit_rank_mean
//                       exact counts; ordered_d3. impostor_d3 stays at the
//                       full d <= 3 ball per session.
//   combinatorics.ball_fill_ns   impostor_d3, fleet_d2's tail.
//   combinatorics.ordered_fill_ns  ordered_d3 only.
//   combinatorics.table_fill_ns  nothing end to end while fusion is off.
//   hash.*_ns_per_seed  impostor_d3 (both), ordered_d3 (SHA-3); close to no
//                       change on fleet_d2's p50.
//   crypto.keygen_us    fleet_d2's p50 and sessions_per_s; not impostor_d3.
//   net.codec_us        fleet_d2 only.
//   puf.respond_us      fleet_d2 and ordered_d3 (63 majority reads).
//   puf.enroll_ms       setup_s on every workload.
//   parallel.efficiency impostor_d3's p50; not the width-1 workloads.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "hash/batch.hpp"
#include "hash/keccak.hpp"
#include "hash/sha1.hpp"
#include "net/message.hpp"
#include "rbc/candidate_stream.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

Bytes digest_of(const Seed256& seed, rbc::hash::HashAlgo algo) {
  if (algo == rbc::hash::HashAlgo::kSha1) {
    const auto d = rbc::hash::sha1_seed(seed);
    return Bytes(d.bytes.begin(), d.bytes.end());
  }
  const auto d = rbc::hash::sha3_256_seed(seed);
  return Bytes(d.bytes.begin(), d.bytes.end());
}

/// Collects spans for the replay: a root per replayed session and one
/// child per timed layer call.
class Recorder {
 public:
  u64 open(u64 session, const char* name) {
    spans_.push_back(Span{session, ++next_id_, 0, name, now_s(), 0.0});
    return next_id_;
  }
  void close(u64 id) { find(id).t1 = now_s(); }

  template <typename F>
  auto timed(u64 session, u64 parent, const char* name, F&& f) {
    const double t0 = now_s();
    auto result = f();
    spans_.push_back(Span{session, ++next_id_, parent, name, t0, now_s()});
    return result;
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  Span& find(u64 id) {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
      if (it->id == id) return *it;
    RBC_CHECK_MSG(false, "unknown span");
    return spans_.back();
  }
  std::vector<Span> spans_;
  u64 next_id_ = u64{1} << 62;  // disjoint from the serve's span ids
};

std::vector<Seed256> random_seeds(std::size_t n, u64 seed) {
  rbc::Xoshiro256 rng(seed);
  std::vector<Seed256> out(n);
  for (auto& s : out) s = Seed256::random(rng);
  return out;
}

/// Nanoseconds per seed of one batched hash policy at the active SIMD level.
template <typename Hash>
double hash_ns_per_seed(const std::vector<Seed256>& seeds) {
  constexpr std::size_t kBlock = Hash::kBatch;
  std::array<typename Hash::digest_type, kBlock> out;
  const Hash hash;
  std::vector<double> reps;
  rbc::u8 sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i + kBlock <= seeds.size(); i += kBlock) {
      rbc::hash::hash_seed_block(hash, seeds.data() + i, kBlock, out.data());
      sink ^= out[0].bytes[0];
    }
    reps.push_back((now_s() - t0) * 1e9 / static_cast<double>(seeds.size()));
  }
  if (sink == 0x5a) std::fputs("", stderr);  // keep the digests observable
  return median(reps);
}

/// Nanoseconds per candidate drawing `count` candidates from streams made
/// by `make` (a fresh stream per rep, in 16-candidate fills).
template <typename Make>
double fill_ns(Make&& make, u64 count, int reps) {
  std::array<Seed256, 16> block;
  std::vector<double> per_rep;
  u64 sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto stream = make();
    u64 produced = 0;
    const double t0 = now_s();
    while (produced < count) {
      const std::size_t n = stream->fill(block.data(), block.size());
      if (n == 0) break;
      produced += n;
      sink ^= block[0].word(0);
    }
    const double dt = now_s() - t0;
    per_rep.push_back(dt * 1e9 / static_cast<double>(std::max<u64>(produced, 1)));
  }
  if (sink == 0x5a) std::fputs("", stderr);
  return median(per_rep);
}

rbc::SearchOptions ca_search_options(const Deployment& dep,
                                     const rbc::EnrollmentRecord& record,
                                     u32 address) {
  // Mirrors CertificateAuthority::process_digest's option set.
  const rbc::CaConfig cfg = dep.ca_config();
  rbc::SearchOptions opts;
  opts.max_distance = cfg.max_distance;
  opts.early_exit = true;
  opts.timeout_s = cfg.time_threshold_s;
  if (dep.spec.order == rbc::SearchOrder::kReliability &&
      address < record.profiles.size()) {
    opts.order = rbc::SearchOrder::kReliability;
    opts.reliability = std::make_shared<const rbc::comb::ReliabilityOrder>(
        rbc::comb::ReliabilityOrder::from_weights(
            record.profiles[address].weights().data()));
  }
  return opts;
}

template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

}  // namespace

LayerResult measure_layers(Deployment& dep, const ServeResult& traced,
                           double untraced_sessions_per_s,
                           double traced_sessions_per_s,
                           const std::string& scratch_dir) {
  LayerResult out;
  Recorder rec;
  auto& db = dep.ca->database();
  rbc::CpuSearchEngine engine(dep.engine_config());
  const rbc::crypto::SaltPolicy salt = dep.ca->config().salt;
  auto note = [&out](std::string msg) {
    ++out.mismatches;
    if (out.errors.size() < 8) out.errors.push_back(std::move(msg));
  };

  // ---- Deterministic replay sample: every stride-th completed session.
  std::vector<const SessionRecord*> completed;
  for (const auto& r : traced.records)
    if (r.completed) completed.push_back(&r);
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(dep.spec.replay_sample),
                            completed.size());
  const std::size_t stride = want == 0 ? 1 : completed.size() / want;

  struct Replayed {
    const SessionRecord* served;
    u64 root;
  };
  std::vector<Replayed> sample;
  for (std::size_t i = 0; i < want; ++i) {
    const SessionRecord& r = *completed[i * stride];
    Device& device = dep.devices[r.device];
    const rbc::ClientConfig& ccfg = device.client->config();
    u32 address = 0;
    planted_distance(dep, r.device, r.reading, &address);

    const u64 root = rec.open(r.session, "replay");
    // A served session decrypts the record twice: inside issue_challenge
    // (timed as rbc.challenge) and again for the search (timed here).
    const rbc::EnrollmentRecord record = rec.timed(
        r.session, root, "rbc.record_load", [&] { return db.load(device.id); });

    rbc::net::HandshakeRequest handshake;
    handshake.device_id = device.id;
    handshake.hash_algo = ccfg.hash_algo;
    handshake.keygen_algo = ccfg.keygen_algo;
    rec.timed(r.session, root, "rbc.challenge",
              [&] { return dep.ca->issue_challenge(handshake); });

    rbc::net::Challenge challenge;
    challenge.puf_address = address;
    challenge.tapki_enabled = dep.spec.tapki;
    challenge.stable_mask = dep.spec.tapki
                                ? record.masks[address].stable_bits()
                                : Seed256::ones();
    rec.timed(r.session, root, "puf.respond",
              [&] { return device.client->respond(challenge); });

    rbc::net::DigestSubmission submission;
    submission.hash_algo = ccfg.hash_algo;
    submission.digest = digest_of(r.reading, ccfg.hash_algo);
    rbc::net::AuthResult verdict;
    verdict.authenticated = r.authenticated;
    verdict.found_distance = r.found_distance;
    verdict.search_seconds = r.search_s;
    const bool codec_ok = rec.timed(r.session, root, "net.codec", [&] {
      bool ok = true;
      for (const rbc::net::Message& m :
           {rbc::net::Message{handshake}, rbc::net::Message{challenge},
            rbc::net::Message{submission}, rbc::net::Message{verdict}}) {
        const auto back = rbc::net::deserialize(rbc::net::serialize(m));
        ok = ok && back.has_value() && back.value() == m;
      }
      return ok;
    });
    if (!codec_ok) note("codec round trip changed a message");

    Seed256 s_init = record.image.word(address);
    if (dep.spec.tapki) s_init &= challenge.stable_mask;
    const rbc::EngineReport report =
        rec.timed(r.session, root, "rbc.search", [&] {
          const rbc::SearchOptions opts =
              ca_search_options(dep, record, address);
          return engine.search(s_init, submission.digest, ccfg.hash_algo,
                               opts);
        });
    if (report.result.found != r.authenticated ||
        report.result.seeds_hashed != r.seeds_hashed) {
      note("replayed search of device " + std::to_string(device.id) +
           " hashed " + std::to_string(report.result.seeds_hashed) +
           " seeds, served " + std::to_string(r.seeds_hashed));
    }
    if (r.authenticated) {
      const Bytes key = rec.timed(r.session, root, "crypto.keygen", [&] {
        return rbc::crypto::generate_public_key(salt.apply(report.result.seed),
                                                ccfg.keygen_algo);
      });
      if (key != r.public_key) note("replayed keygen differs from the RA key");
    }
    rec.close(root);
    sample.push_back({&r, root});
  }

  // ---- Ledger: self time per layer over the sample.
  std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = self_times(spans);
  const char* kLayers[] = {"rbc.record_load", "rbc.challenge", "puf.respond",
                           "net.codec",       "rbc.search",    "crypto.keygen"};
  struct Row {
    u64 calls = 0;
    double self_sum = 0.0;
    std::vector<double> per_call;
  };
  std::vector<Row> rows(std::size(kLayers));
  double replay_self = 0.0;
  std::unordered_map<u64, double> layers_by_root;  // replay root id -> sum
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent == 0) {
      replay_self += self[i];
      continue;
    }
    layers_by_root[s.parent] += self[i];
    for (std::size_t l = 0; l < rows.size(); ++l) {
      if (std::string_view(s.name) != kLayers[l]) continue;
      ++rows[l].calls;
      rows[l].self_sum += self[i];
      rows[l].per_call.push_back(s.t1 - s.t0);
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(sample.size()));
  double served_mean = 0.0;
  double layer_total = 0.0;
  std::vector<double> overhead;
  for (const auto& s : sample) {
    const double layers = layers_by_root[s.root];
    served_mean += s.served->latency_s / n;
    layer_total += layers / n;
    overhead.push_back(s.served->latency_s - layers);
  }
  const double residual_frac =
      served_mean > 0.0 ? 1.0 - layer_total / served_mean : 0.0;

  out.ledger.push_back(fmt("%-20s %13s %14s %15s %6s", "layer", "calls/session",
                           "median/call_us", "self/session_us", "share"));
  const double share = served_mean > 0.0 ? 1.0 / served_mean : 0.0;
  for (std::size_t l = 0; l < rows.size(); ++l) {
    const double per_session = rows[l].self_sum / n;
    out.ledger.push_back(fmt("%-20s %13.3f %14.2f %15.2f %6.3f", kLayers[l],
                             static_cast<double>(rows[l].calls) / n,
                             median(rows[l].per_call) * 1e6,
                             per_session * 1e6, per_session * share));
  }
  out.ledger.push_back(fmt("%-20s %13s %14s %15.2f %6.3f", "sum of layers", "",
                           "", layer_total * 1e6, layer_total * share));
  out.ledger.push_back(fmt("%-20s %13.0f %14s %15.2f %6.3f",
                           "served session", n, "", served_mean * 1e6, 1.0));
  out.ledger.push_back(fmt("%-20s %13s %14s %15.2f %6.3f", "ledger.residual",
                           "", "", (served_mean - layer_total) * 1e6,
                           residual_frac));
  out.ledger.push_back(fmt("%-20s %13s %14s %15.2f %6s", "(replay driver)", "",
                           "", replay_self / n * 1e6, "-"));

  auto add = [&out](std::string name, double value, std::string unit,
                    u64 calls) {
    out.metrics.push_back({std::move(name), value, std::move(unit), calls});
  };
  auto per_call = [&](const char* layer, double scale, const char* name,
                      const char* unit) {
    for (std::size_t l = 0; l < rows.size(); ++l)
      if (std::string_view(kLayers[l]) == layer)
        add(name, median(rows[l].per_call) * scale, unit, rows[l].calls);
  };

  // ---- server: from the traced serve.
  std::vector<double> submit, queue_wait, search;
  u64 seeds = 0;
  for (const auto& s : traced.spans)
    if (std::string_view(s.name) == "server.submit") submit.push_back(s.t1 - s.t0);
  for (const auto& r : traced.records) {
    queue_wait.push_back(r.queue_wait_s);
    search.push_back(r.search_s);
    seeds += r.seeds_hashed;
  }
  add("server.submit_us", median(submit) * 1e6, "us", submit.size());
  add("server.queue_wait_ms", median(queue_wait) * 1e3, "ms", queue_wait.size());
  add("server.overhead_ms", median(overhead) * 1e3, "ms", overhead.size());

  // ---- rbc
  per_call("rbc.record_load", 1e6, "rbc.record_load_us", "us");
  per_call("rbc.challenge", 1e6, "rbc.challenge_us", "us");
  {
    const std::string path =
        (std::filesystem::path(scratch_dir) / "fleet.db").string();
    db.save(path);
    std::vector<double> loads;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_s();
      const auto loaded =
          rbc::EnrollmentDatabase::load_from_file(path, rbc::crypto::Aes128::Key{});
      loads.push_back(now_s() - t0);
      if (loaded.size() != db.size()) note("reloaded fleet lost records");
    }
    std::filesystem::remove(path);
    add("rbc.db_load_ms", median(loads) * 1e3, "ms", loads.size());
  }
  add("rbc.search_ms", median(search) * 1e3, "ms", search.size());
  per_call("rbc.search", 1e3, "rbc.search_replay_ms", "ms");
  add("rbc.seeds_per_session",
      static_cast<double>(seeds) /
          std::max<double>(1.0, static_cast<double>(traced.records.size())),
      "count", 0);
  add("rbc.hit_rank_mean", traced.mean_hit_rank, "count", 0);

  // ---- combinatorics: per-candidate fill cost of each stream family.
  {
    rbc::Xoshiro256 rng(dep.seed ^ 0xF111);
    const Seed256 s_init = Seed256::random(rng);
    rbc::comb::ChaseFactory factory;
    add("combinatorics.ball_fill_ns",
        fill_ns([&] {
          return std::make_unique<rbc::BallStream<rbc::comb::ChaseFactory>>(
              s_init, 3, factory);
        }, u64{1} << 21, 3),
        "ns", 3);
    // The ordered stream walks the first device's enrolled profile.
    const rbc::EnrollmentRecord record = db.load(dep.devices.front().id);
    auto order = std::make_shared<const rbc::comb::ReliabilityOrder>(
        rbc::comb::ReliabilityOrder::from_weights(
            record.profiles.front().weights().data()));
    add("combinatorics.ordered_fill_ns",
        fill_ns([&] {
          return std::make_unique<rbc::OrderedBallStream>(s_init, 3, order);
        }, u64{1} << 17, 3),
        "ns", 3);
    // The first table stream builds the process-wide shell tables; the
    // timed ones then measure stepping only, as fused sessions see it.
    rbc::TableCandidateStream build_tables(s_init, 2,
                                           rbc::sim::IterAlgo::kChase382);
    add("combinatorics.table_fill_ns",
        fill_ns([&] {
          return std::make_unique<rbc::TableCandidateStream>(
              s_init, 2, rbc::sim::IterAlgo::kChase382);
        }, static_cast<u64>(rbc::ball_candidates(2)), 15),
        "ns", 15);
  }

  // ---- hash
  {
    const auto seeds_in = random_seeds(std::size_t{1} << 20, dep.seed ^ 0x4A54);
    add("hash.sha3_ns_per_seed",
        hash_ns_per_seed<rbc::hash::Sha3BatchSeedHash>(seeds_in), "ns", 3);
    add("hash.sha1_ns_per_seed",
        hash_ns_per_seed<rbc::hash::Sha1BatchSeedHash>(seeds_in), "ns", 3);
  }

  // ---- crypto / net / puf
  {
    // Key generation on the sampled readings, whatever their verdict, so the
    // cost is measured on workloads that never reach keygen too.
    std::vector<double> keygen;
    for (const auto& s : sample) {
      const auto algo =
          dep.devices[s.served->device].client->config().keygen_algo;
      const double t0 = now_s();
      const Bytes key =
          rbc::crypto::generate_public_key(salt.apply(s.served->reading), algo);
      keygen.push_back(now_s() - t0);
      if (key.empty()) note("empty public key");
    }
    add("crypto.keygen_us", median(keygen) * 1e6, "us", keygen.size());
  }
  per_call("net.codec", 1e6, "net.codec_us", "us");
  per_call("puf.respond", 1e6, "puf.respond_us", "us");
  add("puf.enroll_ms", median(dep.enroll_s) * 1e3, "ms", dep.enroll_s.size());

  // ---- parallel: full-ball rate at width nproc against width 1.
  {
    rbc::Xoshiro256 rng(dep.seed ^ 0xBA11);
    const Seed256 s_init = Seed256::random(rng);
    Seed256 far = s_init;
    for (int b = 0; b < 4; ++b) far.flip_bit(b * 61);
    const Bytes digest = digest_of(far, rbc::hash::HashAlgo::kSha3_256);
    rbc::SearchOptions opts;
    opts.max_distance = 3;
    auto rate = [&](int width) {
      rbc::EngineConfig cfg;
      cfg.host_threads = width;
      rbc::CpuSearchEngine e(cfg);
      const auto r = e.search(s_init, digest, rbc::hash::HashAlgo::kSha3_256, opts);
      return static_cast<double>(r.result.seeds_hashed) / r.result.host_seconds;
    };
    const int width = dep.shape.nproc;
    const double wide = rate(width);
    const double narrow = rate(1);
    add("parallel.efficiency", wide / (static_cast<double>(width) * narrow),
        "ratio", 2);
  }

  add("ledger.residual_frac", residual_frac, "ratio", sample.size());
  add("bench.trace_overhead_frac",
      untraced_sessions_per_s > 0.0
          ? 1.0 - traced_sessions_per_s / untraced_sessions_per_s
          : 0.0,
      "ratio", 0);

  out.spans = std::move(spans);
  return out;
}

}  // namespace perfbench
