// SHA-1 (FIPS 180-4), implemented from scratch.
//
// The paper evaluates SHA-1 alongside SHA-3 "to provide a more thorough
// performance evaluation" while noting SHA-1 is no longer deemed secure
// (§4.2); the same caveat applies here. Two entry points are provided:
//   * a generic streaming hasher for arbitrary messages, and
//   * sha1_seed(), the RBC hot path specialized for 32-byte Seed256 inputs
//     (single compression, padding folded in at compile time — the same class
//     of fixed-input specialization §3.2.2 applies to SHA-3).
#pragma once

#include "bits/seed256.hpp"
#include "common/types.hpp"
#include "hash/digest.hpp"

namespace rbc::hash {

class Sha1 {
 public:
  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(ByteSpan data) noexcept;
  Digest160 finalize() noexcept;

  /// One-shot convenience.
  static Digest160 hash(ByteSpan data) noexcept {
    Sha1 h;
    h.update(data);
    return h.finalize();
  }

 private:
  void compress(const u8* block) noexcept;

  u32 h_[5];
  u8 buffer_[64];
  u64 total_bytes_;
  std::size_t buffered_;
};

/// RBC hot path: SHA-1 of the canonical 32-byte encoding of a seed.
/// Single fixed-shape compression; no buffering, no length bookkeeping.
Digest160 sha1_seed(const Seed256& seed) noexcept;

/// SHA-1 compression-function calls this thread's scalar kernels (Sha1 and
/// sha1_seed) have made: a deterministic work count for the host probes.
u64 sha1_compressions() noexcept;

/// Reference path for the fixed-input ablation: routes the seed through the
/// generic streaming implementation.
inline Digest160 sha1_seed_generic(const Seed256& seed) noexcept {
  const auto bytes = seed.to_bytes();
  return Sha1::hash(ByteSpan{bytes.data(), bytes.size()});
}

}  // namespace rbc::hash
