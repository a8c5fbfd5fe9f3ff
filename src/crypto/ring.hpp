// Polynomial ring arithmetic over Z_q[X]/(X^256 + 1) — the substrate of the
// toy module-lattice key generators used as Table 7 comparators.
//
// One product per ring, chosen by the modulus:
//   * a negacyclic NTT when 2N | q-1 (the Dilithium-style prime q = 8380417):
//     Cooley–Tukey forward, Gentleman–Sande inverse, Shoup multiplies by
//     bit-reversed tables of psi^br(k) and psi^-br(k). The tables are derived
//     at construction from the primitive root find_primitive_root_2n finds,
//     so no magic constants are transcribed. ntt(), intt() and
//     pointwise_mul_acc() are public so a caller can keep a matrix-vector
//     product A*s in the NTT domain and pay one inverse per output row.
//   * schoolbook negacyclic convolution otherwise (the power-of-two SABER
//     ring and Kyber's q = 3329). Raw products are summed and each output
//     coefficient is reduced once: in wrapping 16-bit lanes when q is a power
//     of two <= 2^16 (exact mod q, since q divides 2^16), else in a 64-bit
//     sum that cannot overflow because the constructor requires
//     N * (q-1)^2 < 2^63.
//
// These are faithful in *structure* (dimensions, sampling, rounding) but are
// NOT secure implementations; see DESIGN.md for the substitution rationale.
#pragma once

#include <array>

#include "common/check.hpp"
#include "common/types.hpp"
#include "hash/keccak.hpp"

namespace rbc::crypto {

inline constexpr int kRingDegree = 256;

/// A polynomial with kRingDegree coefficients in [0, q).
struct Poly {
  std::array<u32, kRingDegree> c{};

  friend bool operator==(const Poly&, const Poly&) = default;
};

/// Ring context: modulus plus (when available) NTT tables. Immutable after
/// construction, so one instance may be shared across threads.
class PolyRing {
 public:
  /// Requires 2 <= q and N * (q-1)^2 < 2^63 (the schoolbook sum's bound).
  explicit PolyRing(u32 q);

  u32 q() const noexcept { return q_; }
  bool ntt_available() const noexcept { return ntt_available_; }

  Poly add(const Poly& a, const Poly& b) const noexcept;
  Poly sub(const Poly& a, const Poly& b) const noexcept;

  /// Negacyclic product a*b mod (X^N + 1, q): NTT -> pointwise -> inverse
  /// NTT when the ring supports it, schoolbook otherwise.
  Poly mul(const Poly& a, const Poly& b) const;

  /// Schoolbook product (also the cross-check for the NTT path).
  Poly mul_schoolbook(const Poly& a, const Poly& b) const noexcept;

  /// Forward negacyclic NTT in place; the result is in bit-reversed order.
  /// Requires ntt_available().
  void ntt(Poly& a) const;
  /// Inverse of ntt(), including the 1/N scaling. Requires ntt_available().
  void intt(Poly& a) const;
  /// acc += a o b, coefficient-wise; all three in the NTT domain.
  void pointwise_mul_acc(Poly& acc, const Poly& a, const Poly& b) const noexcept;

  /// Coefficient-wise rounding shift: (c + 2^(bits-1)) >> bits — the LWR
  /// rounding step of the SABER-style scheme.
  Poly round_shift(const Poly& a, int bits) const noexcept;

  /// Uniform polynomial from a SHAKE-128 stream (rejection sampling). The
  /// stream is consumed in order, but whole rate-sized blocks are squeezed,
  /// so the XOF may be left up to one block past the last byte used: give
  /// each polynomial its own XOF.
  Poly sample_uniform(hash::Shake128& xof) const;

  /// Small (secret) polynomial with coefficients in [-eta, eta], centered
  /// binomial from 2N bytes of a SHAKE-256 stream, stored mod q.
  Poly sample_small(hash::Shake256& xof, int eta) const;

 private:
  /// A twiddle w with its Shoup companion floor(w * 2^32 / q).
  struct Twiddle {
    u32 w = 0;
    u32 shoup = 0;
  };

  Twiddle make_twiddle(u32 w) const noexcept;
  static u32 mul_shoup(u32 a, Twiddle t, u32 q) noexcept;
  static u32 csub(u32 x, u32 q) noexcept;
  u32 reduce(u64 x) const noexcept;

  u32 q_;
  u64 barrett_;       // floor((2^64 - 1) / q)
  bool lanes16_;      // q is a power of two <= 2^16
  bool ntt_available_ = false;
  std::array<Twiddle, kRingDegree> zetas_{};      // psi^br(k)
  std::array<Twiddle, kRingDegree> zetas_inv_{};  // psi^-br(k)
  Twiddle n_inv_{};
};

/// Finds a primitive 2n-th root of unity mod q, or 0 if none exists.
u32 find_primitive_root_2n(u32 q, int n);

}  // namespace rbc::crypto
