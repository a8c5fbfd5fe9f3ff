// Deployment (fleet + CA + server) and the closed-loop client driver.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "server/auth_server.hpp"

namespace perfbench {

struct Device {
  u64 id = 0;
  std::unique_ptr<rbc::puf::SramPufModel> puf;
  std::unique_ptr<rbc::Client> client;  // measured traffic
  std::unique_ptr<rbc::Client> warmup;  // warm-up traffic (one flip out)
};

/// One set-up of a workload: the fleet, its enrollment, the CA and the
/// server, built from the seed alone.
class Deployment {
 public:
  /// `time_enroll` records the duration of every EnrollmentDatabase::enroll
  /// call (traced runs only).
  Deployment(const WorkloadSpec& spec, u64 seed, const HostShape& shape,
             bool time_enroll);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const WorkloadSpec& spec;
  const HostShape shape;
  const u64 seed;
  std::vector<Device> devices;
  std::vector<std::vector<u32>> owned;  // per client: indices into devices
  std::vector<u64> cursor;              // per client: sessions issued so far
  std::vector<double> enroll_s;         // per enroll call, when timed
  rbc::RegistrationAuthority ra;
  std::unique_ptr<rbc::CertificateAuthority> ca;
  /// Declared last: destroyed (drained and joined) before the CA, the RA
  /// and the clients it serves.
  std::unique_ptr<rbc::server::AuthServer> server;

  rbc::CaConfig ca_config() const;
  rbc::EngineConfig engine_config() const;
};

/// What the client saw of one session, plus the outcome fields the checks
/// and the ledger need.
struct SessionRecord {
  u64 session = 0;     // (client << 32) | sequence within the client
  u32 device = 0;      // index into Deployment::devices
  double t0 = 0.0;     // submit() called (process epoch seconds)
  double latency_s = 0.0;  // submit() until the verdict resolved
  bool completed = false;  // accepted, not timed out/cancelled/failed
  bool authenticated = false;
  int found_distance = -1;
  u64 seeds_hashed = 0;
  double search_s = 0.0;      // SearchResult::host_seconds
  double queue_wait_s = 0.0;
  Seed256 reading;            // Client::last_seed() after the verdict
  Bytes public_key;           // key registered at the RA (authenticated)
};

struct ServeResult {
  std::vector<SessionRecord> records;
  std::vector<Span> spans;  // traced serves only
  double wall_s = 0.0;      // first submit to last verdict
  /// ServerStats::mean_hit_rank over this serve's authenticated sessions
  /// (the server's running mean, with earlier serves taken out).
  double mean_hit_rank = 0.0;
};

/// Runs `per_client` sessions on every client thread and waits for all.
/// Warm-up serves use each device's warm-up client and leave the measured
/// traffic's position untouched.
ServeResult serve(Deployment& dep, int per_client, bool trace,
                  bool warmup = false);

/// Outcome of the correctness gate over a set of sessions.
struct GateResult {
  u64 sessions = 0;
  u64 completed = 0;
  u64 wrong_verdicts = 0;
  u64 key_mismatches = 0;
  u64 seed_invariant_violations = 0;  // rejected sessions that skipped seeds
  u64 seeds_hashed = 0;
  std::vector<std::string> errors;  // first few, for the log
  /// Per record: 1 when it completed with a correct verdict and key.
  std::vector<unsigned char> good;
  bool ok() const {
    return wrong_verdicts == 0 && key_mismatches == 0 &&
           seed_invariant_violations == 0;
  }
  /// Sessions that did not end with a correct, completed verdict.
  u64 failed() const {
    return (sessions - completed) + wrong_verdicts + key_mismatches;
  }
};

/// Checks every session: the verdict against the distance planted in the
/// reading, the registered key against the client's own derivation, and
/// that every rejected session hashed the whole ball.
GateResult check_sessions(const Deployment& dep,
                          const std::vector<SessionRecord>& records);

/// Distance from `reading` to the nearest of the device's enrolled words as
/// the CA sees them (TAPKI-masked when the workload masks); `address_out`
/// receives that address.
int planted_distance(const Deployment& dep, u32 device,
                     const Seed256& reading, u32* address_out = nullptr);

// ---------------------------------------------------------------------------
// Per-layer measurement (traced runs)

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  u64 calls = 0;  // calls behind a per-call median; 0 for derived values
};

struct LayerResult {
  std::vector<LayerMetric> metrics;
  std::vector<std::string> ledger;  // printable ledger rows
  std::vector<Span> spans;          // replay spans
  u64 mismatches = 0;               // replays that disagreed with serving
  std::vector<std::string> errors;
};

/// Replays a deterministic sample of the traced serve's sessions on one
/// thread through each layer's public calls, times each layer in isolation
/// and reconciles the sum against the served session time. `scratch_dir`
/// receives the saved enrollment file for the load_from_file timing.
LayerResult measure_layers(Deployment& dep, const ServeResult& traced,
                           double untraced_sessions_per_s,
                           double traced_sessions_per_s,
                           const std::string& scratch_dir);

}  // namespace perfbench
