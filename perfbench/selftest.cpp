// Self-tests of the benchmark's own logic: the tail-percentile chooser, the
// stripe-ownership allocator, span self time and the correctness gate.
#include <cmath>
#include <cstdio>
#include <set>

#include "common/shard_hash.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

void test_tail_chooser() {
  const auto t1000 = choose_tail(1000);
  expect(t1000 && t1000->percentile == 99.0 && t1000->beyond == 10 &&
             t1000->index == 989,
         "1000 samples -> p99 with 10 beyond");
  const auto t999 = choose_tail(999);
  expect(t999 && t999->percentile == 95.0, "999 samples -> p95");
  expect(!choose_tail(19).has_value(), "19 samples are too few");
  expect(!choose_tail(0).has_value(), "0 samples are too few");
  const auto t20 = choose_tail(20);
  expect(t20 && t20->percentile == 50.0 && t20->beyond == 10,
         "20 samples -> p50 with 10 beyond");
  // For every n: the choice has >= 10 beyond and no higher ladder
  // percentile does.
  bool all = true;
  for (std::size_t n = 0; n <= 20000; ++n) {
    const auto t = choose_tail(n);
    for (double p : kTailLadder) {
      if (t && p <= t->percentile) break;
      all = all && samples_beyond(p, n) < kTailBeyond;
    }
    if (t) all = all && t->beyond >= kTailBeyond && t->index + 1 + t->beyond == n;
  }
  expect(all, "tail choice is the highest percentile with >= 10 beyond");

  // Segments of >= 1000 samples each support a p99 with 10 beyond.
  expect(tail_segments(999) == 1 && tail_segments(12000) == 8 &&
             tail_segments(6500) == 6,
         "segment count");
  bool segments_ok = true;
  for (std::size_t n = 1000; n <= 20000; n += 7) {
    const auto t = choose_tail(n / tail_segments(n));
    segments_ok = segments_ok && t && t->percentile >= 99.0;
  }
  expect(segments_ok, "every segment of a long run supports p99");

  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  expect(nearest_rank(sorted, 50.0) == 50.0 && nearest_rank(sorted, 99.0) == 99.0,
         "nearest-rank percentiles");
  expect(median({3.0, 1.0, 2.0, 4.0}) == 2.5, "median of an even count");
}

void test_allocator() {
  bool whole = true, sized = true, distinct = true;
  for (int clients = 1; clients <= static_cast<int>(rbc::kAuthorityStripes);
       ++clients) {
    const auto owned = allocate_devices(12345 + static_cast<u64>(clients), 37,
                                        clients);
    std::vector<int> stripe_owner(rbc::kAuthorityStripes, -1);
    std::set<u64> seen;
    for (int c = 0; c < clients; ++c) {
      const auto& mine = owned[static_cast<std::size_t>(c)];
      sized = sized && mine.size() == 37;
      for (u64 id : mine) {
        distinct = distinct && seen.insert(id).second;
        int& owner = stripe_owner[rbc::stripe_of(id)];
        if (owner != -1 && owner != c) whole = false;
        owner = c;
      }
    }
  }
  expect(sized, "every client gets per_client devices");
  expect(distinct, "device ids are distinct");
  expect(whole, "each stripe belongs to exactly one client");
}

void test_self_times() {
  std::vector<Span> spans = {
      {1, 1, 0, "root", 0.0, 10.0},
      {1, 2, 1, "a", 1.0, 3.0},
      {1, 3, 1, "b", 2.0, 5.0},  // overlaps a: the union counts once
      {1, 4, 1, "c", 7.0, 8.0},
      {1, 5, 4, "d", 7.25, 7.75},
  };
  const auto self = self_times(spans);
  expect(self[0] == 5.0, "root self time excludes the union of children");
  expect(self[3] == 0.5 && self[4] == 0.5, "nested child self times");
}

void test_verdict_checker() {
  expect(!check_verdict(2, 2, true, 2), "d=2 within d<=2 authenticates");
  expect(!check_verdict(4, 3, false, -1), "d=4 against d<=3 is rejected");
  expect(check_verdict(4, 3, true, 3).has_value(),
         "authenticating a reading beyond the budget fails");
  expect(check_verdict(1, 2, false, -1).has_value(),
         "rejecting an honest reading fails");
  expect(check_verdict(1, 2, true, 2).has_value(),
         "a hit at the wrong distance fails");

  // The whole gate on a real miniature deployment: honest sessions pass,
  // then each planted wrong expectation must be caught.
  WorkloadSpec spec = *find_workload("fleet_d2");
  spec.devices = 8;
  const HostShape shape{1, 1, 1};
  Deployment dep(spec, 7, shape, false);
  ServeResult served = serve(dep, 6, false);
  const GateResult honest = check_sessions(dep, served.records);
  expect(honest.ok() && honest.completed == 6 && honest.failed() == 0,
         "honest miniature fleet passes the gate");

  std::size_t auth = served.records.size();
  for (std::size_t i = 0; i < served.records.size(); ++i)
    if (served.records[i].authenticated) auth = i;
  expect(auth < served.records.size(), "miniature fleet authenticated");
  if (auth == served.records.size()) return;

  auto flipped = served.records;
  flipped[auth].authenticated = false;
  flipped[auth].seeds_hashed =
      static_cast<u64>(rbc::ball_candidates(spec.max_distance));
  expect(check_sessions(dep, flipped).wrong_verdicts == 1,
         "a planted wrong verdict fails the gate");

  auto moved = served.records;
  moved[auth].reading.flip_bit(0);
  moved[auth].reading.flip_bit(1);
  moved[auth].reading.flip_bit(2);
  moved[auth].reading.flip_bit(3);
  expect(!check_sessions(dep, moved).ok(),
         "a reading planted beyond the budget fails the gate");

  auto forged = served.records;
  forged[auth].public_key.back() ^= 1;
  expect(check_sessions(dep, forged).key_mismatches == 1,
         "a planted key mismatch fails the gate");

  auto short_miss = served.records;
  short_miss[auth].authenticated = false;
  short_miss[auth].found_distance = -1;
  short_miss[auth].reading.flip_bit(5);
  short_miss[auth].reading.flip_bit(6);
  short_miss[auth].reading.flip_bit(7);
  short_miss[auth].reading.flip_bit(8);
  short_miss[auth].seeds_hashed = 1;
  const GateResult g = check_sessions(dep, short_miss);
  expect(g.seed_invariant_violations + g.wrong_verdicts >= 1,
         "a rejection that skipped part of the ball fails the gate");

  auto dropped = served.records;
  dropped[auth].completed = false;
  const GateResult d = check_sessions(dep, dropped);
  expect(d.ok() && d.failed() == 1, "an incomplete session counts as failed");
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_tail_chooser();
  test_allocator();
  test_self_times();
  test_verdict_checker();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures;
}

}  // namespace perfbench
