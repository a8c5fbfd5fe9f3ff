// BatchSeedHash — the batched hash policy layer over SeedHash.
//
// The search hot loop (rbc_search, the emulated GPU kernel) is monomorphized
// over a hash policy. A BatchSeedHash extends the SeedHash contract with a
// block form, `hash_batch(seeds, n, out)`, that compresses many candidates
// per call through the multi-lane kernels (sha1_multi / keccak_multi) under
// runtime CPU-feature dispatch. Every scalar SeedHash keeps working: the
// helpers below degrade to a B = 1 loop for policies without a batch form,
// so the same search template serves both.
//
// The policies' scalar operator() remains the exact fixed-padding fast path,
// which is what makes batch-vs-scalar equivalence directly testable lane by
// lane.
#pragma once

#include <cstddef>
#include <cstring>

#include "hash/keccak_multi.hpp"
#include "hash/sha1_multi.hpp"
#include "hash/traits.hpp"

namespace rbc::hash {

template <typename H>
concept BatchSeedHash =
    SeedHash<H> &&
    requires(const H& h, const Seed256* seeds, typename H::digest_type* out,
             std::size_t n) {
      { H::kBatch } -> std::convertible_to<std::size_t>;
      { h.hash_batch(seeds, n, out) } noexcept;
    };

/// Candidate block size the search loop should buffer for policy H: the
/// policy's preferred batch, or 1 for scalar policies (which reproduces the
/// one-candidate-per-iteration loop exactly).
template <SeedHash H>
constexpr std::size_t seed_hash_batch() noexcept {
  if constexpr (BatchSeedHash<H>) {
    return H::kBatch;
  } else {
    return 1;
  }
}

/// Hashes a block of `n` seeds under policy H — batched when the policy
/// supports it, a scalar loop otherwise. `n` may be ragged (any value up to
/// the caller's buffer size).
template <SeedHash H>
inline void hash_seed_block(const H& h, const Seed256* seeds, std::size_t n,
                            typename H::digest_type* out) noexcept {
  if constexpr (BatchSeedHash<H>) {
    h.hash_batch(seeds, n, out);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = h(seeds[i]);
  }
}

/// Batched SHA-1 policy: scalar calls take the fixed-padding fast path,
/// blocks go through the 4/8-lane multi-buffer kernels.
struct Sha1BatchSeedHash {
  using digest_type = Digest160;
  /// Two AVX2 groups (or four SWAR groups) per refill — enough to amortize
  /// the block loop, small enough to stay in L1 alongside the digests.
  static constexpr std::size_t kBatch = 16;
  static constexpr std::string_view name() { return "SHA-1 (batched)"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha1_seed(s);
  }
  void hash_batch(const Seed256* seeds, std::size_t n,
                  digest_type* out) const noexcept {
    sha1_seed_multi(seeds, n, out);
  }
};

/// Batched SHA3-256 policy (§3.2.2 fixed padding replicated per lane).
struct Sha3BatchSeedHash {
  using digest_type = Digest256;
  static constexpr std::size_t kBatch = 16;
  static constexpr std::string_view name() { return "SHA-3 (batched)"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha3_256_seed(s);
  }
  void hash_batch(const Seed256* seeds, std::size_t n,
                  digest_type* out) const noexcept {
    sha3_256_seed_multi(seeds, n, out);
  }
};

static_assert(BatchSeedHash<Sha1BatchSeedHash>);
static_assert(BatchSeedHash<Sha3BatchSeedHash>);
static_assert(!BatchSeedHash<Sha1SeedHash>);
static_assert(seed_hash_batch<Sha1SeedHash>() == 1);
static_assert(seed_hash_batch<Sha3BatchSeedHash>() == 16);

}  // namespace rbc::hash
