#include "serving.hpp"

#include <algorithm>
#include <latch>
#include <limits>
#include <thread>

#include "common/shard_hash.hpp"
#include "rbc/candidate_stream.hpp"

namespace perfbench {

namespace {

using rbc::mix_device_id;

// Independent per-purpose streams, all derived from (seed, device id).
constexpr u64 kSerialSalt = 0x5E41A1;
constexpr u64 kEnrollSalt = 0xE27011;
constexpr u64 kClientSalt = 0xC11E27;
constexpr u64 kWarmupSalt = 0x3A12B;
constexpr u64 kPlantSalt = 0x91A27;

u64 stream(u64 seed, u64 id, u64 salt) {
  return mix_device_id(seed ^ mix_device_id(id ^ salt));
}

// The fleet itself (device ids, manufacturing, enrollment, store key) is the
// deployment and does not vary with the seed; the seed drives the traffic:
// planted distances, PUF read noise, challenges. With a seeded fleet, the
// handful of devices whose erratic cells make honest readings drift past
// d = 3 changes with the seed, and ordered_d3's hashing work swung by
// +-20% between seeds; over one fixed fleet it varies by about +-9%.
constexpr u64 kFleetSeed = 0xF1EE7;

rbc::crypto::Aes128::Key master_key() {
  rbc::crypto::Aes128::Key key{};
  rbc::Xoshiro256 rng(stream(kFleetSeed, 0, 0xAE5));
  for (auto& byte : key) byte = static_cast<rbc::u8>(rng.next());
  return key;
}

int planted_target(const WorkloadSpec& spec, u64 seed, u64 id) {
  switch (spec.distance) {
    case WorkloadSpec::Distance::kUniform0to2: {
      rbc::Xoshiro256 rng(stream(seed, id, kPlantSalt));
      return static_cast<int>(rng.next_below(3));
    }
    case WorkloadSpec::Distance::kFour:
      return 4;
    case WorkloadSpec::Distance::kThree:
      return 3;
  }
  return 0;
}

}  // namespace

rbc::CaConfig Deployment::ca_config() const {
  rbc::CaConfig cfg;
  cfg.time_threshold_s = 20.0;  // the paper's T
  cfg.max_distance = spec.max_distance;
  cfg.tapki_enabled = spec.tapki;
  cfg.challenge_rng_seed = stream(seed, 0, 0xCA);
  return cfg;
}

rbc::EngineConfig Deployment::engine_config() const {
  rbc::EngineConfig cfg;
  cfg.host_threads = shape.width;
  return cfg;
}

Deployment::Deployment(const WorkloadSpec& spec_in, u64 seed_in,
                       const HostShape& shape_in, bool time_enroll)
    : spec(spec_in), shape(shape_in), seed(seed_in) {
  const int clients = shape.clients;
  const int per_client = spec.devices / clients;
  const auto ids = allocate_devices(kFleetSeed, per_client, clients);

  owned.resize(static_cast<std::size_t>(clients));
  cursor.assign(static_cast<std::size_t>(clients), 0);
  for (int c = 0; c < clients; ++c) {
    for (u64 id : ids[static_cast<std::size_t>(c)]) {
      owned[static_cast<std::size_t>(c)].push_back(
          static_cast<u32>(devices.size()));
      devices.push_back(Device{id, nullptr, nullptr, nullptr});
    }
  }

  rbc::puf::SramPufModel::Params params;
  params.num_addresses = spec.addresses;
  params.erratic_cell_fraction = spec.erratic_fraction;

  // Fleet generation and enrollment (the store's write path) on nproc
  // threads. Each device's streams depend only on (seed, id), so the result
  // does not depend on which thread enrolls it.
  rbc::EnrollmentDatabase db(master_key());
  const int threads = std::max(1, shape.nproc);
  std::vector<std::vector<double>> timings(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < devices.size();
           i += static_cast<std::size_t>(threads)) {
        Device& d = devices[i];
        d.puf = std::make_unique<rbc::puf::SramPufModel>(
            params, stream(kFleetSeed, d.id, kSerialSalt));
        rbc::ClientConfig ccfg;
        ccfg.device_id = d.id;
        ccfg.hash_algo = spec.alternate_sha1 && i % 2 == 0
                             ? rbc::hash::HashAlgo::kSha1
                             : rbc::hash::HashAlgo::kSha3_256;
        ccfg.injected_distance = planted_target(spec, seed, d.id);
        ccfg.majority_reads = spec.majority_reads;
        d.client = std::make_unique<rbc::Client>(
            ccfg, d.puf.get(), stream(seed, d.id, kClientSalt));
        // Warm-up readings sit one flip out, so set-up time does not depend
        // on how deep a search the seed plants.
        ccfg.injected_distance = 1;
        d.warmup = std::make_unique<rbc::Client>(
            ccfg, d.puf.get(), stream(seed, d.id, kWarmupSalt));
        rbc::Xoshiro256 enroll_rng(stream(kFleetSeed, d.id, kEnrollSalt));
        const double t0 = time_enroll ? now_s() : 0.0;
        db.enroll(d.id, *d.puf, 100, spec.enroll_max_flip_rate, enroll_rng);
        if (time_enroll)
          timings[static_cast<std::size_t>(t)].push_back(now_s() - t0);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& v : timings) enroll_s.insert(enroll_s.end(), v.begin(), v.end());

  ca = std::make_unique<rbc::CertificateAuthority>(
      ca_config(), std::move(db),
      std::make_unique<rbc::CpuSearchEngine>(engine_config()), &ra);

  // Defaults everywhere (1 shard, fusion off, tracing off, logical-clock
  // communication) except what the closed loop needs: one driver and at
  // least one queue slot per client, and the paper's T as the budget.
  rbc::server::ServerConfig cfg;
  cfg.max_in_flight = clients;
  cfg.max_queue_depth = std::max(cfg.max_queue_depth, clients);
  cfg.session_budget_s = 20.0;
  cfg.search_order = spec.order;
  server = std::make_unique<rbc::server::AuthServer>(cfg, ca.get(), &ra);
}

ServeResult serve(Deployment& dep, int per_client, bool trace,
                  bool warmup) {
  const int clients = dep.shape.clients;
  std::vector<std::vector<SessionRecord>> per(static_cast<std::size_t>(clients));
  std::vector<std::vector<Span>> spans(static_cast<std::size_t>(clients));
  std::latch start(clients);
  const rbc::server::ServerStats before = dep.server->stats();

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto cu = static_cast<std::size_t>(c);
      const std::vector<u32>& mine = dep.owned[cu];
      auto& out = per[cu];
      out.reserve(static_cast<std::size_t>(per_client));
      if (trace) spans[cu].reserve(2 * static_cast<std::size_t>(per_client));
      start.arrive_and_wait();
      for (int k = 0; k < per_client; ++k) {
        const u64 seq = warmup ? static_cast<u64>(k) : dep.cursor[cu]++;
        const u32 index = mine[seq % mine.size()];
        Device& device = dep.devices[index];
        rbc::Client* client = warmup ? device.warmup.get() : device.client.get();

        SessionRecord rec;
        rec.session = (static_cast<u64>(c) << 32) | seq;
        rec.device = index;
        rec.t0 = now_s();
        auto future = dep.server->submit(client);
        const double t_submit = trace ? now_s() : 0.0;
        const rbc::server::SessionOutcome outcome = future.get();
        const double t_end = now_s();
        rec.latency_s = t_end - rec.t0;
        rec.completed = outcome.accepted && !outcome.timed_out &&
                        !outcome.cancelled && !outcome.transport_failed;
        rec.authenticated = outcome.authenticated;
        rec.found_distance = outcome.report.result.found_distance;
        rec.seeds_hashed = outcome.report.engine.result.seeds_hashed;
        rec.search_s = outcome.report.engine.result.host_seconds;
        rec.queue_wait_s = outcome.queue_wait_s;
        rec.reading = client->last_seed();
        if (outcome.authenticated)
          rec.public_key = outcome.report.registered_public_key;
        if (trace) {
          const u64 base = (static_cast<u64>(c + 1) << 40) | (seq << 1);
          spans[cu].push_back(
              Span{rec.session, base | 1, 0, "session", rec.t0, t_end});
          spans[cu].push_back(Span{rec.session, base + 2, base | 1,
                                   "server.submit", rec.t0, t_submit});
        }
        out.push_back(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();

  ServeResult result;
  double first = std::numeric_limits<double>::infinity();
  double last = 0.0;
  for (int c = 0; c < clients; ++c) {
    for (auto& rec : per[static_cast<std::size_t>(c)]) {
      first = std::min(first, rec.t0);
      last = std::max(last, rec.t0 + rec.latency_s);
      result.records.push_back(std::move(rec));
    }
    auto& s = spans[static_cast<std::size_t>(c)];
    result.spans.insert(result.spans.end(), s.begin(), s.end());
  }
  result.wall_s = result.records.empty() ? 0.0 : last - first;
  const rbc::server::ServerStats after = dep.server->stats();
  const u64 ranked = after.ranked_sessions - before.ranked_sessions;
  if (ranked > 0) {
    result.mean_hit_rank =
        (after.mean_hit_rank * static_cast<double>(after.ranked_sessions) -
         before.mean_hit_rank * static_cast<double>(before.ranked_sessions)) /
        static_cast<double>(ranked);
  }
  return result;
}

int planted_distance(const Deployment& dep, u32 device, const Seed256& reading,
                     u32* address_out) {
  const Device& d = dep.devices[device];
  const rbc::EnrollmentRecord record = dep.ca->database().load(d.id);
  int best = std::numeric_limits<int>::max();
  for (u32 a = 0; a < dep.spec.addresses; ++a) {
    Seed256 ref = d.puf->enrolled_word(a);
    if (dep.spec.tapki) ref &= record.masks[a].stable_bits();
    const int dist = hamming_distance(reading, ref);
    if (dist < best) {
      best = dist;
      if (address_out != nullptr) *address_out = a;
    }
  }
  return best;
}

GateResult check_sessions(const Deployment& dep,
                          const std::vector<SessionRecord>& records) {
  const u64 full_ball =
      static_cast<u64>(rbc::ball_candidates(dep.spec.max_distance));
  const rbc::crypto::SaltPolicy salt = dep.ca->config().salt;
  const int threads = std::max(1, dep.shape.nproc);
  std::vector<GateResult> partial(static_cast<std::size_t>(threads));
  std::vector<unsigned char> good(records.size(), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      GateResult& g = partial[static_cast<std::size_t>(t)];
      auto note = [&g](std::string msg) {
        if (g.errors.size() < 8) g.errors.push_back(std::move(msg));
      };
      for (std::size_t i = static_cast<std::size_t>(t); i < records.size();
           i += static_cast<std::size_t>(threads)) {
        const SessionRecord& r = records[i];
        ++g.sessions;
        g.seeds_hashed += r.seeds_hashed;
        if (!r.completed) continue;
        ++g.completed;
        const Device& device = dep.devices[r.device];
        const int planted = planted_distance(dep, r.device, r.reading);
        if (auto err = check_verdict(planted, dep.spec.max_distance,
                                     r.authenticated, r.found_distance)) {
          ++g.wrong_verdicts;
          note("device " + std::to_string(device.id) + ": " + *err);
          continue;
        }
        if (r.authenticated) {
          // The key the client derives for itself (Client::derive_public_key
          // on this session's reading) must be the one the RA registered.
          const Bytes expected = rbc::crypto::generate_public_key(
              salt.apply(r.reading), device.client->config().keygen_algo);
          if (expected != r.public_key) {
            ++g.key_mismatches;
            note("device " + std::to_string(device.id) + ": RA key mismatch");
            continue;
          }
        } else if (r.seeds_hashed != full_ball) {
          ++g.seed_invariant_violations;
          note("device " + std::to_string(device.id) + ": rejected after " +
               std::to_string(r.seeds_hashed) + " seeds, ball has " +
               std::to_string(full_ball));
        }
        good[i] = 1;
      }
    });
  }
  for (auto& th : pool) th.join();

  GateResult total;
  total.good = std::move(good);
  for (auto& g : partial) {
    total.sessions += g.sessions;
    total.completed += g.completed;
    total.wrong_verdicts += g.wrong_verdicts;
    total.key_mismatches += g.key_mismatches;
    total.seed_invariant_violations += g.seed_invariant_violations;
    total.seeds_hashed += g.seeds_hashed;
    for (auto& e : g.errors)
      if (total.errors.size() < 8) total.errors.push_back(std::move(e));
  }
  return total;
}

}  // namespace perfbench
