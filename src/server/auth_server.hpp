// The concurrent multi-session authentication server: a thin router over
// N serving shards.
//
// The paper frames RBC-SALTED from the server's side: a CA "authenticates a
// stream of clients", each within a hard threshold T. AuthServer is that
// stream made concrete at fleet scale — submit() hashes the device id to a
// shard (common/shard_hash.hpp) and the shard runs the whole
// admission -> EDF dispatch -> search -> register pipeline against its own
// queue, drivers, device locks and stats stripe (see server/shard.hpp).
// Search compute stays fully shared: every shard's sessions multiplex the
// one process-wide par::WorkerGroup.
//
// stats() aggregates the shard stripes into one consistent ServerStats
// snapshot; percentiles come from fixed-size per-shard reservoirs merged by
// population weight, so the cost is O(shards * reservoir) no matter how
// many sessions the server has ever completed.
#pragma once

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "server/shard.hpp"

namespace rbc::server {

class AuthServer {
 public:
  /// The CA and RA must outlive the server. The CA's backend decides the
  /// compute substrate; engines on the shared WorkerGroup let all in-flight
  /// sessions multiplex one set of worker threads.
  AuthServer(ServerConfig cfg, CertificateAuthority* ca,
             RegistrationAuthority* ra);
  ~AuthServer();  // drains the queues (cancelling pending sessions) and joins

  AuthServer(const AuthServer&) = delete;
  AuthServer& operator=(const AuthServer&) = delete;

  /// Admits one authentication session for `client`, routed to the shard
  /// owning its device id. Always returns a future; a rejected session
  /// resolves immediately with accepted=false and a RejectReason.
  /// The client object must stay alive until the future resolves and must
  /// not be submitted again before then (its PUF-read state is per-session;
  /// per-DEVICE serialization is the server's job, per-CLIENT-object
  /// serialization is the caller's).
  std::future<SessionOutcome> submit(Client* client);

  /// Same, with a per-session threshold budget overriding the configured
  /// session_budget_s. This is what makes EDF dispatch meaningful: with a
  /// uniform budget every deadline is admission + constant and EDF
  /// degenerates to FIFO; a tight-budget session submitted here overtakes
  /// slack ones already queued on its shard.
  ///
  /// `net_salt` pins the session's fault-stream salt. Chaos harnesses use
  /// it so a run's fault schedule is a pure function of
  /// (cfg.fault_seed, net_salt) — independent of shard count, routing and
  /// admission order — and any failure replays from the salt logged in its
  /// SessionOutcome.
  std::future<SessionOutcome> submit(Client* client, double budget_s,
                                     std::optional<u64> net_salt = {});

  /// Consistent aggregate snapshot across all shard stripes. Safe at ANY
  /// lifecycle point — before the first session, mid-chaos, after
  /// shutdown() — empty reservoirs and zero denominators render as the
  /// documented 0.0 sentinels, never an abort.
  ServerStats stats() const;

  /// The stats snapshot flattened into a wire format: Prometheus text
  /// exposition or the rbc.metrics.v1 JSON document (obs/metrics.hpp).
  /// Includes per-shard queue/in-flight gauges as labeled series. Same
  /// lifecycle guarantees as stats().
  std::string export_metrics(
      obs::MetricsFormat format = obs::MetricsFormat::kPrometheus) const;

  /// Merged trace-ring snapshot across shards, ordered by wall start time
  /// (empty unless cfg.trace_enabled). Lock-free with respect to serving.
  std::vector<obs::TraceEvent> trace_events() const;

  /// The server-wide flight recorder (nullptr unless cfg.flight_recorder).
  const obs::FlightRecorder* flight_recorder() const noexcept {
    return recorder_.get();
  }

  /// Which shard serves this device (diagnostics / test support).
  int shard_of_device(u64 device_id) const;
  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }

  /// Stops accepting work, cancels queued sessions (completing them as
  /// cancelled so submitted == rejected + completed reconciles), joins all
  /// shard drivers. Idempotent; also run by the destructor.
  void shutdown();

 private:
  std::vector<Shard::StatsSlice> collect_slices() const;
  ServerStats aggregate(const std::vector<Shard::StatsSlice>& slices) const;

  ServerConfig cfg_;
  /// Created before the shards (they hold raw pointers into it) and
  /// destroyed after them.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rbc::server
