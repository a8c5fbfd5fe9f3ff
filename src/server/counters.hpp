// The serving counters, declared once.
//
// ServerCounters holds every monotone tally the server keeps, and
// kServerCounters is its one table: per field, the Prometheus family and
// HELP text it exports as. A shard's stats stripe, its StatsSlice and the
// aggregate ServerStats all hold one ServerCounters value; AuthServer sums
// slices with one loop over the table and renders every counter family with
// another. Adding a counter is its field, its row, and its increment
// (server/shard.cpp).
#pragma once

#include <iterator>

#include "common/types.hpp"

namespace rbc::server {

struct ServerCounters {
  u64 submitted = 0;
  u64 rejected = 0;         // shed at admission (all reasons)
  u64 shed_infeasible = 0;  // ...of which: deadline-infeasible at submit
  u64 completed = 0;        // sessions fully processed (any verdict)
  u64 authenticated = 0;
  u64 timed_out = 0;
  u64 cancelled = 0;
  u64 transport_failed = 0;  // completed, but retransmits exhausted
  u64 retransmits = 0;       // net::LinkStats tallies, all sessions
  u64 link_timeouts = 0;
  u64 frames_dropped = 0;
  u64 frames_corrupted = 0;
  u64 frames_duplicated = 0;
  u64 frames_reordered = 0;
  u64 frames_stalled = 0;
  u64 ranked_sessions = 0;  // authenticated sessions with rank data
  u64 trace_events_recorded = 0;  // read from the shards' trace rings
  u64 trace_events_dropped = 0;
  u64 flight_records = 0;  // read from the server's flight recorder
  /// Numerators of ServerStats::mean_hit_rank / mean_canonical_rank. Slices
  /// carry sums, never means, so the N-shard aggregate divides once and
  /// equals the 1-shard mean over the same sessions.
  u64 hit_rank_sum = 0;
  u64 canonical_rank_sum = 0;
};

struct CounterRow {
  const char* name;  // Prometheus family; nullptr: summed but not exported
  const char* help;
  u64 ServerCounters::*field;
};

inline constexpr CounterRow kServerCounters[] = {
    {"rbc_sessions_submitted_total", "Sessions submitted",
     &ServerCounters::submitted},
    {"rbc_sessions_rejected_total", "Sessions shed at admission",
     &ServerCounters::rejected},
    {"rbc_sessions_shed_infeasible_total",
     "Rejected as deadline-infeasible at submit",
     &ServerCounters::shed_infeasible},
    {"rbc_sessions_completed_total", "Sessions fully processed",
     &ServerCounters::completed},
    {"rbc_sessions_authenticated_total", "Sessions authenticated",
     &ServerCounters::authenticated},
    {"rbc_sessions_timed_out_total", "Sessions past threshold T",
     &ServerCounters::timed_out},
    {"rbc_sessions_cancelled_total", "Sessions cancelled in queue",
     &ServerCounters::cancelled},
    {"rbc_sessions_transport_failed_total",
     "Sessions that exhausted their retransmit budget",
     &ServerCounters::transport_failed},
    {"rbc_link_retransmits_total", "ARQ retransmissions",
     &ServerCounters::retransmits},
    {"rbc_link_timeouts_total", "ARQ response timeouts",
     &ServerCounters::link_timeouts},
    {"rbc_link_frames_dropped_total", "Frames swallowed in flight",
     &ServerCounters::frames_dropped},
    {"rbc_link_frames_corrupted_total", "Frames bit-flipped",
     &ServerCounters::frames_corrupted},
    {"rbc_link_frames_duplicated_total", "Duplicate frame copies",
     &ServerCounters::frames_duplicated},
    {"rbc_link_frames_reordered_total", "Frames reordered",
     &ServerCounters::frames_reordered},
    {"rbc_link_frames_stalled_total", "Frames stalled",
     &ServerCounters::frames_stalled},
    {"rbc_ranked_sessions_total", "Authenticated sessions with rank data",
     &ServerCounters::ranked_sessions},
    {"rbc_trace_events_recorded_total", "Trace records published",
     &ServerCounters::trace_events_recorded},
    {"rbc_trace_events_dropped_total", "Trace records overwritten by ring wrap",
     &ServerCounters::trace_events_dropped},
    {"rbc_flight_records_total", "Failures flight-recorded",
     &ServerCounters::flight_records},
    {nullptr, nullptr, &ServerCounters::hit_rank_sum},
    {nullptr, nullptr, &ServerCounters::canonical_rank_sum},
};

// A field without a row would be silently left out of every sum and export.
static_assert(std::size(kServerCounters) * sizeof(u64) ==
                  sizeof(ServerCounters),
              "every ServerCounters field needs a kServerCounters row");

}  // namespace rbc::server
