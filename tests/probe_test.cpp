// Host throughput probes: the measurement layer every bench's "host" column
// depends on.
#include <gtest/gtest.h>

#include "sim/probe.hpp"

namespace rbc::sim {
namespace {

TEST(ProbeHash, CountsAndTimesAreSane) {
  for (auto algo : {hash::HashAlgo::kSha1, hash::HashAlgo::kSha3_256}) {
    const auto r = probe_hash(algo, 2000);
    EXPECT_EQ(r.operations, 2000u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.ns_per_op(), 0.0);
    EXPECT_GT(r.ops_per_second(), 0.0);
    EXPECT_FALSE(r.what.empty());
  }
}

TEST(ProbeHash, Sha3CostsMoreThanSha1) {
  // Keccak-f[1600] vs one SHA-1 compression: a robust factor on any host.
  const auto sha1 = probe_hash(hash::HashAlgo::kSha1, 20000);
  const auto sha3 = probe_hash(hash::HashAlgo::kSha3_256, 20000);
  EXPECT_GT(sha3.ns_per_op(), 1.5 * sha1.ns_per_op());
}

TEST(ProbeHashGeneric, AtLeastAsExpensiveAsFixedPath) {
  // The generic streaming path does at least the fixed-input path's work.
  // Work is compression-function calls, counted rather than timed, so a
  // loaded host cannot flip the comparison. Each fixed-path hash must cost
  // at least one call: a probe wired to a kernel the counters do not see
  // (e.g. the batched multi-lane path) reads 0 and fails here.
  for (auto algo : {hash::HashAlgo::kSha1, hash::HashAlgo::kSha3_256}) {
    const auto generic = probe_hash_generic(algo, 2000);
    const auto fixed = probe_hash(algo, 2000);
    EXPECT_GE(fixed.work, fixed.operations)
        << "fixed path hashed without compressing for "
        << static_cast<int>(algo);
    EXPECT_GE(generic.work, fixed.work)
        << "generic path did less work for " << static_cast<int>(algo);
  }
}

TEST(ProbeIterateAndHash, ProducesRequestedSeeds) {
  for (auto iter :
       {IterAlgo::kChase382, IterAlgo::kAlg515, IterAlgo::kGosper}) {
    const auto r =
        probe_iterate_and_hash(iter, hash::HashAlgo::kSha1, 3, 5000);
    EXPECT_EQ(r.operations, 5000u);
    EXPECT_GT(r.ns_per_op(), 0.0);
  }
}

TEST(ProbeIterateAndHash, StopsAtShellExhaustion) {
  // Shell k=1 has only 256 seeds; asking for more must not overrun.
  const auto r = probe_iterate_and_hash(IterAlgo::kChase382,
                                        hash::HashAlgo::kSha1, 1, 100000);
  EXPECT_EQ(r.operations, 256u);
}

TEST(ProbeKeygen, OrdersOfMagnitudeOrdering) {
  // Best-of-3 minima make the ratio robust to scheduler noise on loaded
  // hosts; the gap being asserted is >20x, far beyond jitter.
  double aes = 1e300, saber = 1e300, dilithium = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    aes = std::min(aes,
                   probe_keygen(crypto::KeygenAlgo::kAes128, 2000).ns_per_op());
    saber = std::min(
        saber, probe_keygen(crypto::KeygenAlgo::kSaberLike, 20).ns_per_op());
    dilithium = std::min(
        dilithium,
        probe_keygen(crypto::KeygenAlgo::kDilithiumLike, 10).ns_per_op());
  }
  // The lattice keygens are orders of magnitude above AES (Table 7's gap).
  EXPECT_GT(saber, 20 * aes);
  EXPECT_GT(dilithium, saber);
}

}  // namespace
}  // namespace rbc::sim
