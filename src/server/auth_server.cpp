#include "server/auth_server.hpp"

#include <algorithm>
#include <string>

#include "common/shard_hash.hpp"

namespace rbc::server {

AuthServer::AuthServer(ServerConfig cfg, CertificateAuthority* ca,
                       RegistrationAuthority* ra)
    : cfg_(cfg) {
  RBC_CHECK(ca != nullptr && ra != nullptr);
  RBC_CHECK_MSG(cfg_.num_shards >= 1 &&
                    cfg_.num_shards <= static_cast<int>(kAuthorityStripes),
                "num_shards must be in [1, kAuthorityStripes]");
  RBC_CHECK_MSG(cfg_.max_queue_depth >= 1, "admission queue needs capacity");
  RBC_CHECK_MSG(cfg_.max_in_flight >= 1, "need at least one session driver");

  if (cfg_.flight_recorder) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        static_cast<std::size_t>(std::max(cfg_.max_flight_records, 1)));
  }

  // Split the server totals evenly; every shard gets at least one queue
  // slot and one driver (so the effective totals round up when num_shards
  // exceeds the configured counts).
  const int n = cfg_.num_shards;
  const int queue_per_shard = (cfg_.max_queue_depth + n - 1) / n;
  const int drivers_per_shard = (cfg_.max_in_flight + n - 1) / n;
  shards_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg_, s, n, queue_per_shard,
                                              drivers_per_shard, ca, ra,
                                              recorder_.get()));
  }
}

AuthServer::~AuthServer() { shutdown(); }

int AuthServer::shard_of_device(u64 device_id) const {
  return static_cast<int>(
      route_shard(device_id, static_cast<u32>(shards_.size())));
}

std::future<SessionOutcome> AuthServer::submit(Client* client) {
  return submit(client, cfg_.session_budget_s);
}

std::future<SessionOutcome> AuthServer::submit(Client* client, double budget_s,
                                               std::optional<u64> net_salt) {
  RBC_CHECK(client != nullptr);
  const std::size_t s =
      static_cast<std::size_t>(shard_of_device(client->config().device_id));
  return shards_[s]->submit(client, budget_s, net_salt);
}

std::vector<Shard::StatsSlice> AuthServer::collect_slices() const {
  // Each shard's slice is internally consistent (taken under its stripe
  // locks); the aggregate is the sum of per-shard snapshots.
  std::vector<Shard::StatsSlice> slices;
  slices.reserve(shards_.size());
  for (const auto& shard : shards_) slices.push_back(shard->stats_slice());
  return slices;
}

ServerStats AuthServer::stats() const { return aggregate(collect_slices()); }

ServerStats AuthServer::aggregate(
    const std::vector<Shard::StatsSlice>& slices) const {
  ServerStats agg;
  agg.shards = static_cast<int>(shards_.size());
  double time_sum = 0.0;
  std::vector<const ReservoirSample*> reservoirs;
  reservoirs.reserve(slices.size());
  for (const Shard::StatsSlice& s : slices) {
    for (const CounterRow& row : kServerCounters)
      agg.*row.field += s.counters.*row.field;
    agg.queue_depth += s.queue_depth;
    agg.in_flight += s.in_flight;
    agg.device_states += s.device_states;
    time_sum += s.session_time_sum;
    if (!s.session_times.empty()) reservoirs.push_back(&s.session_times);
  }
  if (recorder_) agg.flight_records = recorder_->total();
  // Mean-of-sums, never mean-of-means: slices carry integer SUMS
  // (hit_rank_sum / canonical_rank_sum) precisely so the N-shard aggregate
  // is the same weighted mean a 1-shard server computes over the identical
  // session set — obs_test pins this equivalence. All ratio derivations
  // below are denominator-guarded; zero denominators render the 0.0
  // sentinel (pre-traffic snapshots must never divide by zero or abort).
  if (agg.ranked_sessions > 0) {
    agg.mean_hit_rank = static_cast<double>(agg.hit_rank_sum) /
                        static_cast<double>(agg.ranked_sessions);
    agg.mean_canonical_rank = static_cast<double>(agg.canonical_rank_sum) /
                              static_cast<double>(agg.ranked_sessions);
  }
  if (agg.completed > 0) {
    agg.mean_session_s = time_sum / static_cast<double>(agg.completed);
  }
  // merged_percentile itself renders 0.0 for no/empty reservoirs now, but
  // skipping the call keeps the pre-traffic path allocation-free.
  if (!reservoirs.empty()) {
    agg.p50_session_s = merged_percentile(reservoirs, 0.50);
    agg.p95_session_s = merged_percentile(reservoirs, 0.95);
  }
  return agg;
}

std::vector<obs::TraceEvent> AuthServer::trace_events() const {
  std::vector<obs::TraceEvent> out;
  for (const auto& shard : shards_) {
    const obs::TraceRing* ring = shard->trace_ring();
    if (ring == nullptr) continue;
    std::vector<obs::TraceEvent> events = ring->snapshot();
    out.insert(out.end(), events.begin(), events.end());
  }
  // Cross-shard order: the rings share one construction instant (the
  // AuthServer ctor), so wall start time is the best global order we have.
  std::sort(out.begin(), out.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.wall_start_s < b.wall_start_s;
            });
  return out;
}

std::string AuthServer::export_metrics(obs::MetricsFormat format) const {
  const std::vector<Shard::StatsSlice> slices = collect_slices();
  const ServerStats s = aggregate(slices);

  obs::MetricsRegistry reg;
  for (const CounterRow& row : kServerCounters) {
    if (row.name != nullptr)
      reg.counter(row.name, row.help, static_cast<double>(s.*row.field));
  }
  // Derived means and point-in-time gauges, aggregate and per-shard.
  reg.gauge("rbc_mean_hit_rank", "Mean seeds hashed at the hit",
            s.mean_hit_rank);
  reg.gauge("rbc_mean_canonical_rank",
            "Mean canonical-order rank of the hit", s.mean_canonical_rank);
  reg.gauge("rbc_shards", "Serving shards", static_cast<double>(s.shards));
  reg.gauge("rbc_queue_depth", "Sessions admitted, not yet picked up",
            static_cast<double>(s.queue_depth));
  reg.gauge("rbc_in_flight", "Sessions currently on a driver",
            static_cast<double>(s.in_flight));
  reg.gauge("rbc_device_states", "Retained per-device lock states",
            static_cast<double>(s.device_states));
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const obs::MetricsRegistry::Labels shard_label = {
        {"shard", std::to_string(i)}};
    reg.gauge("rbc_shard_queue_depth", "Per-shard admission queue depth",
              static_cast<double>(slices[i].queue_depth), shard_label);
    reg.gauge("rbc_shard_in_flight", "Per-shard sessions on a driver",
              static_cast<double>(slices[i].in_flight), shard_label);
  }
  reg.gauge("rbc_session_time_seconds_mean", "Mean session time (exact)",
            s.mean_session_s);
  reg.gauge("rbc_session_time_seconds_p50",
            "Median session time (reservoir estimate)", s.p50_session_s);
  reg.gauge("rbc_session_time_seconds_p95",
            "p95 session time (reservoir estimate)", s.p95_session_s);
  return reg.render(format);
}

void AuthServer::shutdown() {
  for (const auto& shard : shards_) shard->shutdown();
}

}  // namespace rbc::server
