#include "crypto/ring.hpp"

#include <bit>

namespace rbc::crypto {

namespace {

constexpr unsigned kN = kRingDegree;

u32 mod_mul(u32 a, u32 b, u32 q) noexcept {
  return static_cast<u32>((static_cast<u64>(a) * b) % q);
}

u32 mod_pow(u32 base, u64 exp, u32 q) noexcept {
  u64 result = 1;
  u64 b = base % q;
  while (exp) {
    if (exp & 1) result = (result * b) % q;
    b = (b * b) % q;
    exp >>= 1;
  }
  return static_cast<u32>(result);
}

bool is_prime(u32 q) noexcept {
  if (q < 2) return false;
  for (u64 d = 2; d * d <= q; ++d)
    if (q % d == 0) return false;
  return true;
}

unsigned bit_reverse8(unsigned k) noexcept {
  unsigned r = 0;
  for (int b = 0; b < 8; ++b) r |= ((k >> b) & 1u) << (7 - b);
  return r;
}

}  // namespace

u32 find_primitive_root_2n(u32 q, int n) {
  const u64 order = 2 * static_cast<u64>(n);
  if ((static_cast<u64>(q) - 1) % order != 0) return 0;
  // Try candidates g and test psi = g^((q-1)/2n): psi is a primitive 2n-th
  // root iff psi^n == -1 (mod q).
  for (u32 g = 2; g < 1000; ++g) {
    const u32 psi = mod_pow(g, (static_cast<u64>(q) - 1) / order, q);
    if (psi == 0 || psi == 1) continue;
    if (mod_pow(psi, static_cast<u64>(n), q) == q - 1) return psi;
  }
  return 0;
}

PolyRing::PolyRing(u32 q)
    : q_(q),
      barrett_(q >= 2 ? ~u64{0} / q : 0),
      lanes16_(std::has_single_bit(q) && q <= (1u << 16)) {
  RBC_CHECK_MSG(q >= 2, "modulus too small");
  // The schoolbook product sums N raw products of magnitude < (q-1)^2. The
  // bound also keeps q < 2^31, which the Shoup and branch-free reductions
  // rely on.
  RBC_CHECK_MSG(static_cast<u64>(q - 1) * (q - 1) < (u64{1} << 55),
                "modulus too large: N*(q-1)^2 must stay below 2^63");
  // The transform needs a field: a composite q can still have a 2N-th root
  // of -1 (7681 * 12289 does), but then N and the butterfly differences
  // need not be invertible. Such rings keep the schoolbook product.
  const u32 psi = is_prime(q) ? find_primitive_root_2n(q, kRingDegree) : 0;
  if (psi == 0) return;
  std::array<u32, kN> pow{};  // psi^e for e in [0, N)
  pow[0] = 1;
  for (unsigned e = 1; e < kN; ++e) pow[e] = mod_mul(pow[e - 1], psi, q);
  for (unsigned k = 0; k < kN; ++k) {
    const unsigned e = bit_reverse8(k);
    zetas_[k] = make_twiddle(pow[e]);
    // psi has order 2N and psi^N = -1, so psi^-e = -psi^(N - e) for e > 0.
    zetas_inv_[k] = make_twiddle(e == 0 ? 1 : q - pow[kN - e]);
  }
  n_inv_ = make_twiddle(mod_pow(kRingDegree, static_cast<u64>(q) - 2, q));
  ntt_available_ = true;
}

PolyRing::Twiddle PolyRing::make_twiddle(u32 w) const noexcept {
  return {w, static_cast<u32>((static_cast<u64>(w) << 32) / q_)};
}

// x in [0, 2q) -> x mod q, without a branch (q < 2^31, so x - q is negative
// exactly when its top bit is set).
u32 PolyRing::csub(u32 x, u32 q) noexcept {
  const u32 y = x - q;
  return y + (q & (0u - (y >> 31)));
}

// Shoup's multiply: a*w mod q for a < 2^32 and q < 2^31. The quotient
// estimate is short by at most one, so the result of the wrapping subtract
// lands in [0, 2q) and one conditional subtract finishes.
u32 PolyRing::mul_shoup(u32 a, Twiddle t, u32 q) noexcept {
  const u32 quot = static_cast<u32>((static_cast<u64>(a) * t.shoup) >> 32);
  return csub(a * t.w - quot * q, q);
}

// Barrett reduction of any 64-bit x: the quotient estimate is short by at
// most one, so one conditional subtract finishes.
u32 PolyRing::reduce(u64 x) const noexcept {
  const u64 quot = static_cast<u64>((static_cast<u128>(x) * barrett_) >> 64);
  const u64 r = x - quot * q_;
  return static_cast<u32>(r >= q_ ? r - q_ : r);
}

Poly PolyRing::add(const Poly& a, const Poly& b) const noexcept {
  Poly r;
  for (unsigned i = 0; i < kN; ++i) {
    const u32 s = a.c[i] + b.c[i];
    r.c[i] = s >= q_ ? s - q_ : s;
  }
  return r;
}

Poly PolyRing::sub(const Poly& a, const Poly& b) const noexcept {
  Poly r;
  for (unsigned i = 0; i < kN; ++i)
    r.c[i] = a.c[i] >= b.c[i] ? a.c[i] - b.c[i] : a.c[i] + q_ - b.c[i];
  return r;
}

Poly PolyRing::mul_schoolbook(const Poly& a, const Poly& b) const noexcept {
  // Negacyclic convolution as N dot products. Row i of the product is b
  // shifted up by i with the part that wraps past X^N negated (X^N = -1), so
  // with ext = (-b, b) output k is sum_i a[i] * ext[N + k - i]: the raw
  // products are summed and each output coefficient is reduced once.
  Poly r;
  if (lanes16_) {
    // Wrapping 16-bit lanes are exact mod 2^16, hence mod q. The product is
    // taken in u32: u16 * u16 would promote to int and could overflow.
    std::array<u16, 2 * kN> ext;
    for (unsigned j = 0; j < kN; ++j) {
      ext[j] = static_cast<u16>(0u - b.c[j]);
      ext[kN + j] = static_cast<u16>(b.c[j]);
    }
    for (unsigned k = 0; k < kN; ++k) {
      u16 sum = 0;
      for (unsigned i = 0; i < kN; ++i)
        sum = static_cast<u16>(sum + a.c[i] * ext[kN + k - i]);
      r.c[k] = sum & (q_ - 1);
    }
    return r;
  }
  // |sum| <= N * (q-1)^2 < 2^63, which the constructor enforces.
  std::array<i64, 2 * kN> ext;
  for (unsigned j = 0; j < kN; ++j) {
    ext[j] = -static_cast<i64>(b.c[j]);
    ext[kN + j] = b.c[j];
  }
  const i64 q = q_;
  for (unsigned k = 0; k < kN; ++k) {
    i64 sum = 0;
    for (unsigned i = 0; i < kN; ++i)
      sum += static_cast<i64>(a.c[i]) * ext[kN + k - i];
    const i64 v = sum % q;
    r.c[k] = static_cast<u32>(v < 0 ? v + q : v);
  }
  return r;
}

void PolyRing::ntt(Poly& p) const {
  RBC_CHECK(ntt_available_);
  const u32 q = q_;
  u32* a = p.c.data();
  // Cooley–Tukey: layer `len` splits each block by X^len -/+ psi^br(k).
  unsigned k = 1;
  for (unsigned len = kN / 2; len >= 1; len >>= 1) {
    for (unsigned start = 0; start < kN; start += 2 * len) {
      const Twiddle z = zetas_[k++];
      for (unsigned j = start; j < start + len; ++j) {
        const u32 t = mul_shoup(a[j + len], z, q);
        const u32 u = a[j];
        a[j] = csub(u + t, q);
        a[j + len] = csub(u + q - t, q);
      }
    }
  }
}

void PolyRing::intt(Poly& p) const {
  RBC_CHECK(ntt_available_);
  const u32 q = q_;
  u32* a = p.c.data();
  // Gentleman–Sande: undo the layers in reverse, then divide by N.
  for (unsigned len = 1; len < kN; len <<= 1) {
    unsigned k = kN / (2 * len);
    for (unsigned start = 0; start < kN; start += 2 * len) {
      const Twiddle z = zetas_inv_[k++];
      for (unsigned j = start; j < start + len; ++j) {
        const u32 u = a[j];
        const u32 v = a[j + len];
        a[j] = csub(u + v, q);
        a[j + len] = mul_shoup(u + q - v, z, q);
      }
    }
  }
  for (unsigned i = 0; i < kN; ++i) a[i] = mul_shoup(a[i], n_inv_, q);
}

void PolyRing::pointwise_mul_acc(Poly& acc, const Poly& a,
                                 const Poly& b) const noexcept {
  for (unsigned i = 0; i < kN; ++i)
    acc.c[i] = reduce(static_cast<u64>(a.c[i]) * b.c[i] + acc.c[i]);
}

Poly PolyRing::mul(const Poly& a, const Poly& b) const {
  if (!ntt_available_) return mul_schoolbook(a, b);
  Poly fa = a, fb = b, r;
  ntt(fa);
  ntt(fb);
  pointwise_mul_acc(r, fa, fb);
  intt(r);
  return r;
}

Poly PolyRing::round_shift(const Poly& a, int bits) const noexcept {
  Poly r;
  const u32 half = bits > 0 ? (1u << (bits - 1)) : 0;
  for (unsigned i = 0; i < kN; ++i) r.c[i] = (a.c[i] + half) >> bits;
  return r;
}

Poly PolyRing::sample_uniform(hash::Shake128& xof) const {
  const unsigned bits = static_cast<unsigned>(std::bit_width(q_ - 1));
  const unsigned bytes = (bits + 7) / 8;
  const u32 mask = bits >= 32 ? ~0u : (1u << bits) - 1;
  // Every candidate width (1..4 bytes) divides the rate, so no candidate
  // straddles two blocks and the byte stream is read exactly in order.
  constexpr std::size_t kRate = hash::Shake128::kRate;
  static_assert(kRate % 3 == 0 && kRate % 4 == 0);
  Poly r;
  u8 block[kRate];
  unsigned i = 0;
  while (i < kN) {
    xof.squeeze(MutByteSpan{block, kRate});
    for (std::size_t off = 0; off < kRate && i < kN; off += bytes) {
      u32 v = 0;
      for (unsigned b = 0; b < bytes; ++b)
        v |= static_cast<u32>(block[off + b]) << (8 * b);
      v &= mask;
      if (v < q_) r.c[i++] = v;
    }
  }
  return r;
}

Poly PolyRing::sample_small(hash::Shake256& xof, int eta) const {
  RBC_CHECK(eta >= 1 && eta <= 8);
  const u32 field = (1u << eta) - 1;
  u8 buf[2 * kN];
  xof.squeeze(MutByteSpan{buf, sizeof(buf)});
  Poly r;
  for (unsigned i = 0; i < kN; ++i) {
    const u32 v = buf[2 * i] | (static_cast<u32>(buf[2 * i + 1]) << 8);
    const int a = std::popcount(v & field);
    const int b = std::popcount((v >> eta) & field);
    const int coeff = a - b;  // in [-eta, eta]
    r.c[i] = coeff >= 0 ? static_cast<u32>(coeff)
                        : q_ - static_cast<u32>(-coeff);
  }
  return r;
}

}  // namespace rbc::crypto
